package e2e

import (
	"fmt"
	"runtime"
	"time"
)

// layerTimes folds one session's spans (a recorder holds one session)
// by name: summed self time, summed duration, and the per-span self
// times the scan split needs.
type layerTimes struct {
	self, dur map[string]time.Duration
	selfOf    []time.Duration
}

func foldSpans(spans []Span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, dur: map[string]time.Duration{}, selfOf: SelfTimes(spans)}
	for _, s := range spans {
		lt.self[s.Name] += lt.selfOf[s.ID]
		lt.dur[s.Name] += s.Dur()
	}
	return lt
}

// stagedSession sets up a fresh instance and runs the staged controller
// on it with the given pool size. Like runSession it lets go of the
// instance, so the next session starts from the same heap.
func stagedSession(w *Workload, seed uint64, workers int, rec *Recorder) (*Staged, error) {
	runtime.GC()
	in, err := w.Setup(seed, workers, true)
	if err != nil {
		return nil, fmt.Errorf("e2e: %s set-up: %w", w.Name, err)
	}
	return RunStaged(in, rec)
}

// RunTraced measures the per-layer metrics of one workload. It runs, in
// order: an untimed core.Run (warm-up and reference series), a timed
// core.Run (what the spans must add up to), the staged session whose
// spans are reported, a staged session on one worker (parallel
// speed-up), the epoch-0 objective, and the layer probes. If the staged series is
// not bit-identical to core.Run's, the spans explain some other
// program: the result is marked incorrect and says so.
func RunTraced(w *Workload, seed uint64) (*Result, *Info, []Span, error) {
	workers := Workers()
	info := &Info{Workload: w.Name, Traced: true}
	fail := func(format string, a ...any) {
		info.Failures = append(info.Failures, fmt.Sprintf(format, a...))
	}
	warn := func(format string, a ...any) {
		info.Warnings = append(info.Warnings, fmt.Sprintf(format, a...))
	}

	warm, err := runSession(w, seed, workers, true)
	if err != nil {
		return nil, nil, nil, err
	}
	ref := SeriesOf(warm.rep)
	timed, err := runSession(w, seed, workers, true)
	if err != nil {
		return nil, nil, nil, err
	}

	rec := NewRecorder()
	st, err := stagedSession(w, seed, workers, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	spans := rec.Spans()
	if !st.Series.Equal(ref) {
		fail("per-layer output INVALID: the staged controller's series differ from core.Run's, so its spans do not describe core.Run")
	}
	if rr := timed.rep.Recovery; st.DevicesLost != rr.DevicesLost || st.DegradedReads != rr.DegradedReads || st.ReconstructedBytes != rr.ReconstructedBytes {
		fail("per-layer output INVALID: staged recovery counts (%d lost, %d degraded reads, %d B rebuilt) differ from core.Run's (%d, %d, %d)",
			st.DevicesLost, st.DegradedReads, st.ReconstructedBytes, rr.DevicesLost, rr.DegradedReads, rr.ReconstructedBytes)
	}
	if err := CheckTree(spans); err != nil {
		fail("span tree malformed: %v", err)
	}

	serial, identical := st, true
	serialRec := NewRecorder()
	if workers > 1 {
		if serial, err = stagedSession(w, seed, 1, serialRec); err != nil {
			return nil, nil, nil, err
		}
		if identical = serial.Series.Equal(ref); !identical {
			fail("staged series at Workers=1 differ from core.Run's at Workers=%d", workers)
		}
	}

	own, _, _, err := Epoch0Objectives(w, seed, workers)
	if err != nil {
		return nil, nil, nil, err
	}

	lt := foldSpans(spans)
	epochs := float64(w.Epochs)
	perEpoch := func(d time.Duration) float64 { return d.Seconds() / epochs }
	ms := newMetricSet(PerLayer)

	stagedWall := spans[st.Root].Dur().Seconds()
	coverage := lt.dur[spanEpoch].Seconds() / timed.wall.Seconds()
	if coverage < 0.9 || coverage > 1.1 {
		warn("core.trace_coverage %.3f is outside 0.9-1.1: the staged epochs do not add up to the untraced run", coverage)
	}
	ms.set("core.epoch_self_s", perEpoch(lt.self[spanEpoch]))
	ms.set("core.reselect_epochs", float64(st.ReselectEpochs))
	ms.set("core.pool_records", float64(st.PoolRecords)/epochs)
	ms.set("core.subset_records", float64(st.SubsetRecords)/epochs)
	ms.set("core.trace_coverage", coverage)
	ms.set("core.trace_overhead_frac", (stagedWall-timed.wall.Seconds())/timed.wall.Seconds())

	ms.set("quant.quantize_s", perEpoch(lt.self[spanQuantize]))
	ms.set("quant.model_bytes", float64(st.ModelBytes))

	ms.set("smartssd.scan_s", perEpoch(lt.self[spanScan]))
	ms.set("smartssd.scan_mb", float64(st.ScanBytes)/1e6/epochs)
	ms.set("smartssd.scan_attempts", float64(st.ScanAttempts))
	ms.set("smartssd.retries", float64(st.Retries))
	ms.set("smartssd.scan_sim_s", perEpoch(st.ScanSim))
	ms.set("smartssd.frac_of_link_bound", ratio(st.ScanBound.Seconds(), st.ScanSim.Seconds()))
	ms.set("smartssd.ship_sim_s", perEpoch(st.ShipSim))
	ms.set("smartssd.ship_mb", float64(st.ShipBytes)/1e6/epochs)
	ms.set("smartssd.feedback_sim_s", perEpoch(st.FeedbackSim))
	ms.set("smartssd.degraded_reads", float64(st.DegradedReads))
	ms.set("smartssd.reconstructed_mb", float64(st.ReconstructedBytes)/1e6)
	ms.set("smartssd.rebuild_s", perEpoch(lt.self[spanRebuild]))
	ms.set("smartssd.rebuild_sim_s", perEpoch(st.RebuildSim))

	ms.set("data.verify_s", perEpoch(lt.dur[spanVerify]))
	ms.set("data.verify_mb_per_s", ratio(float64(st.VerifyBytes)/1e6, lt.dur[spanVerify].Seconds()))
	ms.set("data.gather_s", perEpoch(lt.self[spanGather]))
	ms.set("data.generate_s", timed.gen.Seconds())
	ms.set("data.encode_s", timed.enc.Seconds())

	// A degraded scan is a clean scan plus the parity pull and the
	// Reed–Solomon decode, so the difference of the two means is what
	// reconstruction cost on the host.
	var clean, degraded time.Duration
	var nClean int
	for _, s := range spans {
		if s.Name != spanScan {
			continue
		}
		if st.degradedScanID[s.ID] {
			degraded += lt.selfOf[s.ID]
		} else {
			clean += lt.selfOf[s.ID]
			nClean++
		}
	}
	reconstruct := 0.0
	if nDegraded := len(st.degradedScanID); nDegraded > 0 && nClean > 0 {
		reconstruct = degraded.Seconds() - clean.Seconds()/float64(nClean)*float64(nDegraded)
	}
	ms.set("erasure.reconstruct_s", reconstruct/epochs)

	ms.set("faults.injected_kills", float64(st.InjectedKills))
	ms.set("faults.fallback_epochs", float64(timed.rep.Faults.FallbackEpochs))

	var flopsPerRow float64
	prev := w.FeatureDim
	for _, h := range append(append([]int(nil), w.Hidden...), w.Classes) {
		flopsPerRow += 2 * float64(prev) * float64(h)
		prev = h
	}
	ms.set("nn.forward_s", perEpoch(lt.self[spanForward]))
	ms.set("nn.forward_gflops", ratio(float64(st.ForwardRows)*flopsPerRow/1e9, lt.dur[spanForward].Seconds()))
	ms.set("nn.embed_s", perEpoch(lt.self[spanEmbed]))

	ms.set("selection.select_s", perEpoch(lt.self[spanSelect]))
	ms.set("selection.objective_epoch0", own)

	ms.set("streaming.push_s", perEpoch(lt.self[spanPush]))
	ms.set("streaming.push_records_per_s", ratio(float64(st.PushRecords), lt.dur[spanPush].Seconds()))
	ms.set("streaming.finish_s", perEpoch(lt.self[spanFinish]))
	ms.set("streaming.active_levels", float64(st.ActiveLevels))
	ms.set("streaming.reservoir_rows", float64(st.ReservoirRows))
	ms.set("streaming.state_bytes", float64(st.StateBytes))

	ms.set("trainer.train_s", perEpoch(lt.self[spanTrain]))
	ms.set("trainer.train_samples_per_s", ratio(float64(st.SubsetRecords), lt.dur[spanTrain].Seconds()))
	ms.set("trainer.eval_s", perEpoch(lt.self[spanEval]))
	ms.set("trainer.train_allocs", float64(st.TrainMallocs)/float64(st.TrainEpochs))

	info.Env = CurrentEnv(seed, 1)
	speedup := 0.0
	switch {
	case info.Env.DegradedHost:
		warn("degraded_host: %d effective CPUs for %d workers; parallel.speedup withheld (printed as 0)",
			info.Env.EffectiveCPUs, info.Env.Workers)
	default:
		serialSpans := serialRec.Spans()
		speedup = serialSpans[serial.Root].Dur().Seconds() / stagedWall
	}
	ms.set("parallel.workers", float64(workers))
	ms.set("parallel.speedup", speedup)
	ms.set("parallel.identical", boolCount(identical))

	ms.set("simtime.host_s_per_sim_s", ratio(timed.wall.Seconds(), timed.sim.Seconds()))

	runtime.GC()
	in, err := w.Setup(seed, workers, false)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := probeStorage(in, ms); err != nil {
		return nil, nil, nil, err
	}
	if err := probeErasure(in, ms); err != nil {
		return nil, nil, nil, err
	}
	probeTensor(in, ms)

	res := &Result{Attempted: w.Epochs, Correct: len(info.Failures) == 0}
	if res.Metrics, err = ms.done(); err != nil {
		return nil, nil, nil, err
	}
	return res, info, spans, nil
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
