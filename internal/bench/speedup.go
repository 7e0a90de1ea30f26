package bench

import (
	"fmt"
	"time"
)

// Section43 regenerates the §4.3 headline numbers: end-to-end training
// speed-up of NeSSA versus training on the full dataset (paper average
// 5.37×) and versus the CPU-side CRAIG and k-Centers baselines (paper:
// 4.3× and 8.1×).
//
// End-to-end time = (epochs to reach the common accuracy target,
// measured on the real training runs) × (per-epoch wall time from the
// calibrated device models at paper scale). The baselines are assumed
// to need at least NeSSA's epoch count — conservative, since stale
// selection converges no faster (Table 3).
func Section43(runs []DatasetRun) *Table {
	t := &Table{
		ID:    "section4.3",
		Title: "End-to-end training speed-up (time to common accuracy target)",
		Note:  "epochs from measured convergence; per-epoch time from device models at paper scale; per-epoch column isolates the hardware win from substrate convergence",
		Header: []string{"Dataset", "Target (%)", "Full epochs", "NeSSA epochs",
			"Full epoch t", "NeSSA epoch t", "Per-epoch", "Speed-up", "vs CRAIG", "vs K-Centers"},
	}
	var sumFull, sumCraig, sumKC, sumEpoch float64
	var n int
	for _, r := range runs {
		target := min(r.Full.FinalAcc, r.NeSSA.Metrics.FinalAcc) * 0.98
		eFull := epochsOr(r.Full.EpochsToReach(target), len(r.Full.EpochAcc))
		eNessa := epochsOr(r.NeSSA.Metrics.EpochsToReach(target), len(r.NeSSA.Metrics.EpochAcc))
		// Baseline epoch counts are measured when the baseline runs are
		// present; a baseline that never reaches the target is charged
		// its full budget (conservative).
		eCraig, eKC := eNessa, eNessa
		if r.CRAIG != nil {
			eCraig = epochsOr(r.CRAIG.Metrics.EpochsToReach(target), len(r.CRAIG.Metrics.EpochAcc))
		}
		if r.KC != nil {
			eKC = epochsOr(r.KC.Metrics.EpochsToReach(target), len(r.KC.Metrics.EpochAcc))
		}

		times := MethodEpochTimes(r.Spec, r.NeSSA.AvgSubsetFrac)
		nessaT, craigT, kcT, fullT := times[0].Total, times[1].Total, times[2].Total, times[3].Total

		nessaE2E := float64(eNessa) * nessaT.Seconds()
		speedFull := float64(eFull) * fullT.Seconds() / nessaE2E
		speedCraig := float64(eCraig) * craigT.Seconds() / nessaE2E
		speedKC := float64(eKC) * kcT.Seconds() / nessaE2E

		perEpoch := fullT.Seconds() / nessaT.Seconds()
		sumFull += speedFull
		sumCraig += speedCraig
		sumKC += speedKC
		sumEpoch += perEpoch
		n++
		t.AddRow(r.Spec.Name,
			fmt.Sprintf("%.1f", target*100),
			fmt.Sprintf("%d", eFull),
			fmt.Sprintf("%d", eNessa),
			fullT.Round(time.Millisecond).String(),
			nessaT.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", perEpoch),
			fmt.Sprintf("%.2fx", speedFull),
			fmt.Sprintf("%.2fx", speedCraig),
			fmt.Sprintf("%.2fx", speedKC))
	}
	if n > 0 {
		t.AddRow("AVERAGE", "", "", "", "", "",
			fmt.Sprintf("%.2fx", sumEpoch/float64(n)),
			fmt.Sprintf("%.2fx", sumFull/float64(n)),
			fmt.Sprintf("%.2fx", sumCraig/float64(n)),
			fmt.Sprintf("%.2fx", sumKC/float64(n)))
	}
	return t
}

// FinalSubsetFracs extracts the per-dataset converged subset fractions
// (Table 2's "Subset %" column) — the ratios the paper's §4.4 movement
// reduction uses.
func FinalSubsetFracs(runs []DatasetRun) map[string]float64 {
	m := make(map[string]float64, len(runs))
	for _, r := range runs {
		m[r.Spec.Name] = r.NeSSA.FinalSubsetFrac
	}
	return m
}

func epochsOr(e, fallback int) int {
	if e <= 0 {
		return fallback
	}
	return e
}
