package gpu

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEpochOverlappedTakesMax(t *testing.T) {
	g := V100()
	plain := g.Epoch(50_000, 3*1024, 0.041)
	over := g.EpochOverlapped(50_000, 3*1024, 0.041)
	if over.Total != max(plain.Compute, plain.Load) {
		t.Fatalf("overlapped total %v != max(compute %v, load %v)", over.Total, plain.Compute, plain.Load)
	}
	if over.Total > plain.Total {
		t.Fatal("overlap made the epoch slower")
	}
}

func TestOverlapNeverSlower(t *testing.T) {
	f := func(nRaw uint16, kbRaw uint8, gfRaw uint8) bool {
		g := V100()
		n := int(nRaw) + 1
		bytes := (int64(kbRaw) + 1) * 1024
		gf := float64(gfRaw)/50 + 0.001
		plain := g.Epoch(n, bytes, gf)
		over := g.EpochOverlapped(n, bytes, gf)
		return over.Total <= plain.Total && over.Total >= plain.Total/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMovementShareZeroTotal(t *testing.T) {
	var b EpochBreakdown
	if got := b.MovementShare(); got != 0 {
		t.Fatalf("zero-total share = %v, want 0", got)
	}
}

func TestLoadTimeZeroBytes(t *testing.T) {
	if got := V100().LoadTimePerImage(0, 100); got != 0 {
		t.Fatalf("zero-byte load = %v, want 0", got)
	}
}

func TestEpochZeroImages(t *testing.T) {
	b := V100().Epoch(0, 1024, 1)
	if b.Total != 0 {
		t.Fatalf("zero-image epoch = %v, want 0", b.Total)
	}
}

func TestSelectionComputeTimeFormula(t *testing.T) {
	c := DefaultHostCPU()
	// 400 GFLOPs at 400 GFLOP/s = 1 s.
	if got := c.SelectionComputeTime(400e9); got != time.Second {
		t.Fatalf("compute time = %v, want 1s", got)
	}
	if c.SelectionComputeTime(0) != 0 || c.SelectionComputeTime(-5) != 0 {
		t.Error("degenerate FLOPs should cost zero")
	}
}
