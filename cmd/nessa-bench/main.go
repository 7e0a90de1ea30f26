// nessa-bench regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	nessa-bench [-quick] [-only table2,figure5] [-csv dir] [-stride 5]
//
// Analytic artifacts (figures 1, 2, 4, 6; tables 1, 4) evaluate the
// calibrated device models instantly. Training artifacts (tables 2–3,
// figure 5, §4.3/§4.4) run real optimization: a few minutes at full
// scale, seconds with -quick.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nessa/internal/bench"
	"nessa/internal/data"
	"nessa/internal/tensor"
)

func main() {
	quick := flag.Bool("quick", false, "run training artifacts at reduced scale")
	only := flag.String("only", "", "comma-separated artifact ids (table1..4, figure1..6, section4.3, section4.4, ablations, bench-selection, bench-training, bench-streaming, bench-faults, bench-recovery, seed-variance); empty = all")
	csvDir := flag.String("csv", "", "also write each artifact as CSV into this directory")
	stride := flag.Int("stride", 5, "epoch stride for figure5 rows")
	seeds := flag.Int("seeds", 3, "seed count for the seed-variance artifact")
	resultsDir := flag.String("results", "results", "directory for machine-readable benchmark artifacts (BENCH_selection.json, BENCH_training.json, BENCH_faults.json)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	var tables []*bench.Table
	add := func(t *bench.Table) { tables = append(tables, t) }

	if selected("table1") {
		add(bench.Table1())
	}
	if selected("figure1") {
		add(bench.Figure1())
	}
	if selected("figure2") {
		add(bench.Figure2())
	}
	if selected("table4") {
		add(bench.Table4())
	}
	if selected("figure6") {
		add(bench.Figure6())
	}
	if selected("figure4") {
		add(bench.Figure4())
	}

	needRuns := selected("table2") || selected("figure5") || selected("section4.3") || selected("section4.4")
	if needRuns {
		fmt.Fprintln(os.Stderr, "running accuracy experiments (full + NeSSA + baselines on all datasets)...")
		runs, err := bench.AccuracyRuns(*quick)
		if err != nil {
			fatal(err)
		}
		if selected("table2") {
			add(bench.Table2(runs))
		}
		if selected("figure5") {
			add(bench.Figure5(runs, *stride))
		}
		if selected("section4.3") {
			add(bench.Section43(runs))
		}
		if selected("section4.4") {
			add(bench.Section44(bench.FinalSubsetFracs(runs)))
		}
	}
	if selected("table3") {
		fmt.Fprintln(os.Stderr, "running table 3 ablation grid (CIFAR-10)...")
		res, err := bench.RunTable3([]float64{0.10, 0.30, 0.50}, *quick)
		if err != nil {
			fatal(err)
		}
		add(bench.Table3(res))
	}
	if selected("table3-starved") {
		fmt.Fprintln(os.Stderr, "running table 3 in the sample-starved regime...")
		res, err := bench.RunTable3([]float64{0.10, 0.30, 0.50}, true)
		if err != nil {
			fatal(err)
		}
		tab := bench.Table3(res)
		tab.ID = "table3-starved"
		tab.Title = "CIFAR-10 ablation in the sample-starved regime (750 samples): where selection quality matters"
		tab.Note = "reduced-scale dataset; reproduces the paper's method differentiation (see EXPERIMENTS.md)"
		add(tab)
	}
	// Extension ablations (beyond the paper's artifacts): included with
	// -only ablations, -only ablation-<name>, or by default with no
	// -only filter.
	ablations := []struct {
		id   string
		emit func() *bench.Table
	}{
		{"ablation-eps", bench.AblationEps},
		{"ablation-partition", bench.AblationPartition},
		{"ablation-bits", bench.AblationBits},
		{"ablation-dse", bench.AblationDSE},
		{"ablation-cluster", bench.AblationCluster},
		{"ablation-energy", bench.AblationEnergy},
		{"ablation-scaleout", bench.AblationScaleOut},
	}
	for _, a := range ablations {
		if len(want) == 0 || want["ablations"] || want[a.id] {
			add(a.emit())
		}
	}
	if selected("bench-selection") {
		fmt.Fprintln(os.Stderr, "measuring the parallel selection engine (workers=1 vs all cores)...")
		path := filepath.Join(*resultsDir, "BENCH_selection.json")
		res, tab, err := bench.WriteSelectionBench(path)
		if err != nil {
			fatal(err)
		}
		if !res.IdenticalSubsets {
			fatal(fmt.Errorf("parallel selection diverged from serial — determinism contract broken"))
		}
		if res.SpeedupPerClass == nil {
			fmt.Fprintln(os.Stderr, "nessa-bench:", res.SpeedupWarning)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		add(tab)
	}
	if selected("bench-training") {
		fmt.Fprintln(os.Stderr, "measuring the training hot path (worker sweep 1/2/all cores, both kernel tiers)...")
		path := filepath.Join(*resultsDir, "BENCH_training.json")
		res, tab, err := bench.WriteTrainingBench(path, *quick)
		if err != nil {
			fatal(err)
		}
		if !res.IdenticalTrajectories {
			fatal(fmt.Errorf("parallel training diverged from serial — determinism contract broken"))
		}
		if res.FastTierSupported && !res.FastTierDeterministic {
			fatal(fmt.Errorf("fast-tier training diverged across worker counts — determinism contract broken"))
		}
		if res.FastTierSupported && res.FastVsBitExactMaxRel > tensor.FastTierTolerance {
			fatal(fmt.Errorf("fast tier diverges from bit-exact by %.3g, beyond the documented %.0e tolerance",
				res.FastVsBitExactMaxRel, tensor.FastTierTolerance))
		}
		switch {
		case res.SpeedupEpoch == nil:
			fmt.Fprintln(os.Stderr, "nessa-bench:", res.SpeedupWarning)
		case *res.SpeedupEpoch < bench.TrainingSpeedupGate:
			fatal(fmt.Errorf("epoch speedup at workers=2 is %.2fx, below the %.1fx gate", *res.SpeedupEpoch, bench.TrainingSpeedupGate))
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		add(tab)
	}
	if selected("bench-streaming") {
		fmt.Fprintln(os.Stderr, "measuring single-pass streaming selection (sequential NAND scan, on-chip state)...")
		path := filepath.Join(*resultsDir, "BENCH_streaming.json")
		res, tab, err := bench.WriteStreamingBench(path, *quick)
		if err != nil {
			fatal(err)
		}
		if !res.IdenticalSubsets {
			fatal(fmt.Errorf("streaming selection diverged across worker counts — determinism contract broken"))
		}
		if res.Scan.FracOfBound < bench.StreamingBandwidthGate {
			fatal(fmt.Errorf("streaming scan achieved %.3f of the sequential-read bound, below the %.2f gate",
				res.Scan.FracOfBound, bench.StreamingBandwidthGate))
		}
		if res.Stats.StateBytes > res.Stats.BudgetBytes {
			fatal(fmt.Errorf("streaming selection state %d bytes exceeds the %d-byte on-chip budget",
				res.Stats.StateBytes, res.Stats.BudgetBytes))
		}
		if res.QualityRatio < bench.StreamingQualityGate {
			fatal(fmt.Errorf("streaming objective is %.3f of exact LazyGreedy, below the %.2f gate",
				res.QualityRatio, bench.StreamingQualityGate))
		}
		if frac := res.ScanFraction(); frac > bench.StreamingScanGate {
			fatal(fmt.Errorf("streaming sieve scanned the reservoir on %.3f of its %d rung visits, above the %.2f gate — the saturation prune has regressed",
				frac, res.Stats.RungVisits, bench.StreamingScanGate))
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		add(tab)
	}
	if selected("bench-faults") {
		fmt.Fprintln(os.Stderr, "measuring fault-tolerance overhead and chaos resilience...")
		path := filepath.Join(*resultsDir, "BENCH_faults.json")
		res, tab, err := bench.WriteFaultBench(path, *quick)
		if err != nil {
			fatal(err)
		}
		if res.OverheadPct > 2 {
			fatal(fmt.Errorf("fault-tolerance clean-path overhead %.2f%% exceeds the 2%% budget", res.OverheadPct))
		}
		if !res.IdenticalTrajectories {
			fatal(fmt.Errorf("resilient scan path diverged from the raw path — determinism contract broken"))
		}
		if !res.ChaosAllDone {
			fatal(fmt.Errorf("a chaos-profile run failed to complete all epochs"))
		}
		if res.CleanFallback != 0 {
			fatal(fmt.Errorf("clean-path run engaged degraded mode (%d fallback epochs)", res.CleanFallback))
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		add(tab)
	}
	if selected("bench-recovery") {
		fmt.Fprintln(os.Stderr, "measuring device-loss recovery (parity overhead, degraded scans, checkpointed resume)...")
		path := filepath.Join(*resultsDir, "BENCH_recovery.json")
		res, tab, err := bench.WriteRecoveryBench(path, *quick)
		if err != nil {
			fatal(err)
		}
		if !res.IdenticalTrajectories {
			fatal(fmt.Errorf("kill-one-device run diverged from the clean trajectory — recovery contract broken"))
		}
		if !res.ResumeExact {
			fatal(fmt.Errorf("checkpointed session did not resume bit-identically"))
		}
		if !res.DegradedWithinBound {
			fatal(fmt.Errorf("degraded scan overhead %.1f µs exceeds the modeled reconstruction bound %.1f µs",
				res.DegradedWallUS-res.CleanWallUS, res.BoundUS))
		}
		if res.OverheadPct > 2 {
			fatal(fmt.Errorf("parity clean-path overhead %.2f%% exceeds the 2%% budget", res.OverheadPct))
		}
		if res.CleanScanAllocBytes > bench.RecoveryCleanScanAllocGate {
			fatal(fmt.Errorf("a steady-state clean striped scan allocates %d bytes, above the %d-byte gate — a payload has escaped the scan arena",
				res.CleanScanAllocBytes, bench.RecoveryCleanScanAllocGate))
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		add(tab)
	}
	if want["seed-variance"] {
		spec, _ := data.Lookup("CIFAR-10")
		list := make([]uint64, *seeds)
		for i := range list {
			list[i] = uint64(i + 1)
		}
		tab, err := bench.SeedVariance(spec, *quick, list)
		if err != nil {
			fatal(err)
		}
		add(tab)
	}

	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(*csvDir, t.ID+".csv"))
			if err != nil {
				fatal(err)
			}
			if err := t.CSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nessa-bench:", err)
	os.Exit(1)
}
