package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nessa/internal/bench/e2e"
	"nessa/internal/core"
)

// This file is the one harness under the measured artifacts
// (bench-selection, -training, -streaming, -faults, -recovery): the host
// block, interleaved best-of timing, the allocation probe, gate rows and
// the artifact writer. The emitters keep their spec, their measured
// workload and their gate table.

// host is the environment block of a result that reports a worker
// sweep, so a speedup is never read without the machine it was taken on.
type host struct {
	GeneratedAt   string `json:"generatedAt"`
	CPUs          int    `json:"cpus"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	EffectiveCPUs int    `json:"effectiveCPUs"` // min(cpus, gomaxprocs, cgroup quota): the real parallelism budget
}

func currentHost() host {
	env := e2e.CurrentEnv(0, 0)
	return host{GeneratedAt: stamp(), CPUs: env.NumCPU, GoMaxProcs: env.GoMaxProcs, EffectiveCPUs: env.EffectiveCPUs}
}

// stamp is the generatedAt value of an artifact written now.
func stamp() string { return time.Now().UTC().Format(time.RFC3339) }

// Gate is one pass/fail condition an artifact is held to. Detail is the
// measured value against its threshold, printed whether or not the gate
// holds; a gate whose measurement had to be withheld passes and says why.
type Gate struct {
	Name   string
	OK     bool
	Detail string
}

// bestOfInterleaved times two configurations back to back, rep by rep,
// so both see the same machine conditions, and returns the fastest run
// of each. a and b report their own measured span; an untimed warm-up
// pair fills caches, pools and arenas first.
func bestOfInterleaved(reps int, a, b func() (time.Duration, error)) (bestA, bestB time.Duration, err error) {
	for i := -1; i < reps; i++ { // pass -1 is the warm-up
		dtA, err := a()
		if err != nil {
			return 0, 0, err
		}
		dtB, err := b()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case i == 0:
			bestA, bestB = dtA, dtB
		case i > 0:
			bestA, bestB = min(bestA, dtA), min(bestB, dtB)
		}
	}
	return bestA, bestB, nil
}

// keepReport adapts an end-to-end run to bestOfInterleaved, leaving the
// last run's report in *rep for the trajectory checks.
func keepReport(rep **core.Report, run func() (*core.Report, time.Duration, error)) func() (time.Duration, error) {
	return func() (dt time.Duration, err error) {
		*rep, dt, err = run()
		return dt, err
	}
}

// deltaScans is the batch size of perCallDelta: long enough that one
// batch is well above timer resolution.
const deltaScans = 32

// perCallDelta measures what one call of b costs over one call of a,
// from interleaved batches of deltaScans calls, best of reps each. A
// difference of two end-to-end timings would drown it in noise. Never
// negative.
func perCallDelta(reps int, a, b func() error) (time.Duration, error) {
	batch := func(f func() error) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < deltaScans; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		}
	}
	bestA, bestB, err := bestOfInterleaved(reps, batch(a), batch(b))
	return max(0, (bestB-bestA)/deltaScans), err
}

// allocBytesPerCall reports the bytes one call of f allocates, averaged
// over n calls. The caller brings f to steady state first.
func allocBytesPerCall(n int, f func() error) (int64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n), nil
}

// ms and us render a duration in the float units the artifacts record.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// writeArtifact writes res as the indented JSON artifact at path. When
// carry is given and path already holds an artifact of the same type,
// carry sees it first, so a regenerated file can keep the "before" of a
// before/after pair — recorded by the tool rather than by hand.
func writeArtifact[R any](path string, res *R, carry func(res, prev *R)) error {
	if carry != nil {
		if old, err := os.ReadFile(path); err == nil {
			var prev R
			if json.Unmarshal(old, &prev) == nil {
				carry(res, &prev)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
