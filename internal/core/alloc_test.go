package core

import (
	"runtime"
	"strings"
	"testing"

	"nessa/internal/parallel"
)

// moduleAllocBytes reports the bytes f allocated on stacks that run
// the module's non-test code, on any goroutine: it profiles every
// allocation (MemProfileRate = 1) and diffs the heap profile across f.
// Unlike allocatedBy's TotalAlloc delta, it leaves out the runtime's
// own allocations in the window — an OS thread spawned by a
// stop-the-world restart is 5,248 B, more than a steady epoch's whole
// bound — and those of the measuring calls.
func moduleAllocBytes(f func()) uint64 {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()
	before := moduleAllocProfile()
	f()
	var got uint64
	for stk, b := range moduleAllocProfile() {
		got += b - before[stk]
	}
	return got
}

// moduleAllocProfile publishes the heap profile (runtime.GC) and
// returns the cumulative bytes allocated per stack that holds a frame
// of the module's non-test code.
func moduleAllocProfile() map[[32]uintptr]uint64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[[32]uintptr]uint64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if strings.HasPrefix(fr.Function, "nessa/") && !strings.HasSuffix(fr.File, "_test.go") {
				out[r.Stack0] += uint64(r.AllocBytes)
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// steadyEpochBytes runs a matrix-scale session of mode on one device
// for warm epochs, then returns the bytes one more reselection epoch
// allocates: the selection model refresh, the candidate read, the embed
// loop, the selector, training on the subset and evaluation.
func steadyEpochBytes(t *testing.T, mode string) uint64 {
	t.Helper()
	tr, te, dev := faultRig(t)
	opt := matrixOptions(mode, 1)
	opt.Device, opt.DatasetName = dev, "ds"
	if err := validateOptions(&opt); err != nil {
		t.Fatal(err)
	}
	prev := parallel.Default().Workers()
	parallel.SetDefaultWorkers(opt.Workers)
	defer parallel.SetDefaultWorkers(prev)
	s, err := newSession(tr, te, matrixCfg(mode), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Three epochs size every session buffer; the Report's series have
	// room for a fourth entry, so appending it allocates nothing.
	const warm = 3
	s.tcfg.Epochs = warm
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	s.epoch, s.tcfg.Epochs = warm, warm+1
	got := moduleAllocBytes(func() { _, err = s.run() })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSteadyStateEpochAllocs: once the first reselections have sized the
// session's buffers, a reselection epoch reuses them. Before the session
// owned its buffers the same epoch allocated 88,904 B (batch) and
// 1,418,368 B (streaming): the trainer trained on a fresh
// Dataset.Subset, the maximizers and the streaming selector were rebuilt
// per pass and the scan buffers per call.
func TestSteadyStateEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		mode string
		max  uint64 // bytes per steady-state epoch
	}{
		// Batch reads 1,320 B on every run, and one 16-byte escape in
		// decodeChunk reads 1,416 B: the bound sits between the two.
		{"batch", 1368},
		// Streaming reads 3,064–7,608 B from run to run, a spread that
		// hides a 16-byte escape, so its bound stays 2 % of 1,418,368 B.
		{"streaming", 1418368 / 50},
	} {
		got := steadyEpochBytes(t, tc.mode)
		t.Logf("%s × device: %d bytes per steady-state epoch (bound %d)", tc.mode, got, tc.max)
		if got > tc.max {
			t.Errorf("%s × device: a steady-state epoch allocated %d bytes, want ≤ %d", tc.mode, got, tc.max)
		}
	}
}
