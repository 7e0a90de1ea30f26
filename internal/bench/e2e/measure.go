package e2e

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nessa/internal/core"
	"nessa/internal/nn"
	"nessa/internal/quant"
	"nessa/internal/selection"
	"nessa/internal/selection/streaming"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// Timing summarizes a handful of repetitions. With n this small no
// percentile above the median is supportable, so none is kept.
type Timing struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"` // every repetition, in the order run
}

func summarize(xs []float64) Timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := Timing{N: len(s), Samples: xs}
	if len(s) == 0 {
		return t
	}
	t.Min, t.Max = s[0], s[len(s)-1]
	t.Median = s[len(s)/2]
	if len(s)%2 == 0 {
		t.Median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return t
}

// Info is the context line printed before a result: the environment,
// the spread behind each reported median, and anything the reader
// should be warned about. Claim is always null: this benchmark defines
// the measurement and asserts no gain.
type Info struct {
	Workload string            `json:"workload"`
	Traced   bool              `json:"traced"`
	Env      Env               `json:"env"`
	Timings  map[string]Timing `json:"timings,omitempty"`
	Failures []string          `json:"failures,omitempty"` // why Correct is false
	Warnings []string          `json:"warnings,omitempty"`
	Claim    *string           `json:"claim"`
}

// session is one timed core.Run on a fresh instance. It keeps the
// report and the readings but not the instance, so a finished session's
// drives can be collected before the next one is set up.
type session struct {
	rep       *core.Report
	wall      time.Duration
	sim       time.Duration
	linkB     int64
	allocB    uint64
	setup     time.Duration
	gen, enc  time.Duration
	streaming bool
}

// runSession sets up a fresh instance and times one core.Run on it.
// The collector runs first, outside the timed region, so one session's
// garbage is not charged to the next one's wall time or peak memory.
func runSession(w *Workload, seed uint64, workers int, kills bool) (*session, error) {
	runtime.GC()
	in, err := w.Setup(seed, workers, kills)
	if err != nil {
		return nil, fmt.Errorf("e2e: %s set-up: %w", w.Name, err)
	}
	s := &session{setup: in.SetupTime(), gen: in.Generate, enc: in.Encode, streaming: in.Opt.Streaming}
	sim0 := in.SimNow()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s.rep, err = core.Run(in.Train, in.Test, in.Cfg, in.Opt)
	s.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("e2e: %s core.Run: %w", w.Name, err)
	}
	s.sim = in.SimNow() - sim0
	s.linkB = in.HostLinkBytes()
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	return s, nil
}

// RunUntraced measures the end-to-end metrics of one workload: an
// untimed warm-up session, then timed sessions on fresh instances until
// seconds of measuring have passed (at least two), each checked against
// the warm-up's series. The returned error is a failure to run at all;
// a run that finishes with wrong outputs returns Correct == false and
// says why in Info.Failures.
func RunUntraced(w *Workload, seed uint64, seconds float64) (*Result, *Info, error) {
	workers := Workers()
	info := &Info{Workload: w.Name}
	fail := func(format string, a ...any) {
		info.Failures = append(info.Failures, fmt.Sprintf(format, a...))
	}

	// Warm-up. For a cluster workload it doubles as the no-kill
	// reference: parity must make the kill sessions indistinguishable
	// from it.
	warm, err := runSession(w, seed, workers, false)
	if err != nil {
		return nil, nil, err
	}
	ref := SeriesOf(warm.rep)
	setups := []float64{warm.setup.Seconds()}

	epochs := float64(w.Epochs)
	var walls, allocs []float64
	var last *session
	res := &Result{}
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds() < seconds {
		s, err := runSession(w, seed, workers, true)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += w.Epochs
		res.Failed += s.rep.Faults.FallbackEpochs
		setups = append(setups, s.setup.Seconds())
		walls = append(walls, s.wall.Seconds()/epochs)
		allocs = append(allocs, float64(s.allocB)/1e6/epochs)
		if !SeriesOf(s.rep).Equal(ref) {
			fail("timed session %d's loss/accuracy/subset series differ from the warm-up's", len(walls))
		}
		if last != nil && (s.sim != last.sim || s.linkB != last.linkB) {
			fail("simulated time or host-link bytes changed between sessions on one seed")
		}
		if w.Clustered() {
			if got := s.rep.Recovery.DevicesLost; got != len(w.Kills) {
				fail("cluster lost %d devices, schedule kills %d", got, len(w.Kills))
			}
			if len(w.Kills) > 0 && s.rep.Recovery.DegradedReads == 0 {
				fail("kill schedule armed but no degraded read was served")
			}
		}
		last = s
	}
	rss := peakRSSMB()
	if res.Failed > 0 {
		fail("%d of %d epochs fell back to degraded-mode selection", res.Failed, res.Attempted)
	}

	// On the batch workloads the selection path is the denominator, so
	// the ratio is 1 by definition and is not recomputed every run.
	objective := 1.0
	if last.streaming {
		own, batch, stateBytes, err := Epoch0Objectives(w, seed, workers)
		if err != nil {
			return nil, nil, err
		}
		objective = ratio(own, batch)
		if stateBytes > streaming.DefaultMemoryBudget() {
			fail("streaming selector state %d B exceeds the on-chip budget %d B", stateBytes, streaming.DefaultMemoryBudget())
		}
	}

	setupT, wallT, allocT := summarize(setups), summarize(walls), summarize(allocs)
	info.Timings = map[string]Timing{"setup_s": setupT, "epoch_wall_s": wallT, "alloc_mb_per_epoch": allocT}
	ms := newMetricSet(EndToEnd)
	ms.set("setup_s", setupT.Median)
	ms.set("epoch_wall_s", wallT.Median)
	ms.set("sim_epoch_s", last.sim.Seconds()/epochs)
	ms.set("host_link_mb_per_epoch", float64(last.linkB)/1e6/epochs)
	ms.set("final_acc", last.rep.Metrics.FinalAcc)
	ms.set("objective_vs_batch", objective)
	ms.set("alloc_mb_per_epoch", allocT.Median)
	ms.set("peak_rss_mb", rss)
	if res.Metrics, err = ms.done(); err != nil {
		return nil, nil, err
	}
	info.Env = CurrentEnv(seed, len(walls))
	if info.Env.DegradedHost {
		info.Warnings = append(info.Warnings, fmt.Sprintf("degraded_host: %d effective CPUs for %d workers; timings describe a serial run",
			info.Env.EffectiveCPUs, info.Env.Workers))
	}
	res.Correct = len(info.Failures) == 0
	return res, info, nil
}

// Epoch0Objectives evaluates selection quality where it is decided: on
// the whole pool, with the epoch-0 selection model, it scores the
// subset the workload's own path picks (own) and the subset the batch
// path picks (batch), both with selection.Objective summed over classes.
// The two are the same subset on the batch workloads. Both selections
// draw the seeds core.Run's first epoch draws. stateBytes is the
// streaming selector's persistent state (0 on batch workloads).
func Epoch0Objectives(w *Workload, seed uint64, workers int) (own, batch float64, stateBytes int64, err error) {
	in, err := w.Setup(seed, workers, false)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := mirrored(in.Opt); err != nil {
		return 0, 0, 0, err
	}
	train, opt := in.Train, in.Opt
	selModel := quant.QuantizeModel(trainer.New(train.Spec, in.Cfg).Model).Dequantized()
	emb := nn.GradEmbeddings(selModel.Forward(train.X), train.Labels)
	classes := train.ClassIndex()
	score := func(selected []int) float64 {
		var f float64
		for _, members := range classes {
			if len(members) > 0 {
				f += selection.Objective(emb, members, selected)
			}
		}
		return f
	}
	k := subsetK(opt.SubsetFrac, train.Len(), train.Len())

	// Pool positions are sample indices here: the epoch-0 pool is the
	// whole training set.
	res, err := batchSelect(emb, train.Labels, train.Spec.Classes, k, opt, tensor.NewRNG(opt.Seed))
	if err != nil {
		return 0, 0, 0, err
	}
	batch = score(res.Selected)
	if !opt.Streaming {
		return batch, batch, 0, nil
	}

	cands := make([]int, train.Len())
	for i := range cands {
		cands[i] = i
	}
	rec, out, scanSpan := NewRecorder(), &Staged{}, -1
	root := rec.BeginRun(spanRun)
	sres, _, err := stagedStreaming(in, rec, out, root, &scanSpan, selModel, cands, opt.SubsetFrac,
		tensor.NewRNG(opt.Seed), in.Train.Spec.BytesPerImage, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return score(sres.Selected), batch, out.StateBytes, nil
}
