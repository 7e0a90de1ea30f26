package core

import (
	"testing"

	"nessa/internal/parallel"
)

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
	got := allocatedBy(func() { _, err = s.run() })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSteadyStateEpochAllocs: once the first reselections have sized the
// session's buffers, a reselection epoch reuses them. The parent bytes
// are what the same epoch allocated when the trainer trained on a fresh
// Dataset.Subset, the maximizers and the streaming selector were rebuilt
// per pass and the scan buffers per call.
func TestSteadyStateEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		mode   string
		parent uint64 // bytes per steady-state epoch before the session owned its buffers
	}{
		{"batch", 88904},
		{"streaming", 1418368},
	} {
		got := steadyEpochBytes(t, tc.mode)
		t.Logf("%s × device: %d bytes per steady-state epoch (parent %d)", tc.mode, got, tc.parent)
		if got > tc.parent/50 {
			t.Errorf("%s × device: a steady-state epoch allocated %d bytes, want ≤ 2 %% of the parent's %d", tc.mode, got, tc.parent)
		}
	}
}
