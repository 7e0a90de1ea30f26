package gpu

import (
	"testing"
	"time"
)

func TestDataParallelValidation(t *testing.T) {
	if _, err := NewDataParallel(V100(), 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestAllReduceSingleWorkerFree(t *testing.T) {
	d, _ := NewDataParallel(V100(), 1)
	if got := d.AllReduceTime(1 << 30); got != 0 {
		t.Fatalf("single-worker all-reduce = %v, want 0", got)
	}
}

func TestAllReduceVolumeFormula(t *testing.T) {
	d, _ := NewDataParallel(V100(), 4)
	// 2·(3/4)·1 GB at 50 GB/s = 30 ms plus latency.
	got := d.AllReduceTime(1e9)
	want := d.AllReduceL + 30*time.Millisecond
	if got != want {
		t.Fatalf("all-reduce = %v, want %v", got, want)
	}
}

// speedup is one GPU's epoch time over d's on the same workload.
func speedup(d *DataParallel, n int, fwdGFLOPs float64, paramBytes int64, batch int) float64 {
	single, _ := NewDataParallel(d.GPU, 1)
	return single.EpochTime(n, fwdGFLOPs, paramBytes, batch).Seconds() / d.EpochTime(n, fwdGFLOPs, paramBytes, batch).Seconds()
}

func TestMultiGPUSpeedupNearLinearForBigModels(t *testing.T) {
	// ResNet-50-class work (compute-heavy): 4 GPUs should deliver
	// >3× despite the sync cost.
	d, _ := NewDataParallel(V100(), 4)
	s := speedup(d, 50_000, 4.1, 100*1024*1024, 128)
	if s < 3.0 || s > 4.0 {
		t.Fatalf("4-GPU ResNet-50 speed-up = %.2f, want in (3,4]", s)
	}
}

func TestMultiGPUSyncBoundForTinyModels(t *testing.T) {
	// A tiny model with huge gradients is all-reduce-bound: scaling
	// efficiency collapses.
	d, _ := NewDataParallel(V100(), 8)
	tiny := speedup(d, 50_000, 0.001, 500*1024*1024, 128)
	big := speedup(d, 50_000, 10, 500*1024*1024, 128)
	if tiny >= big {
		t.Fatalf("sync-bound speed-up (%.2f) not below compute-bound (%.2f)", tiny, big)
	}
	if tiny > 2 {
		t.Fatalf("sync-bound config scaled %.2fx; all-reduce model too cheap", tiny)
	}
}

func TestEpochTimeDegenerate(t *testing.T) {
	d, _ := NewDataParallel(V100(), 2)
	if d.EpochTime(0, 1, 1024, 128) != 0 {
		t.Error("zero images should take zero time")
	}
	if d.EpochTime(100, 1, 1024, 0) != 0 {
		t.Error("zero batch should take zero time")
	}
}

func TestMoreWorkersNeverSlowerWhenComputeBound(t *testing.T) {
	prev := time.Duration(1 << 62)
	for _, w := range []int{1, 2, 4, 8} {
		d, _ := NewDataParallel(V100(), w)
		cur := d.EpochTime(50_000, 4.1, 25*1024*1024, 128)
		if cur > prev {
			t.Fatalf("%d workers slower than %d", w, w/2)
		}
		prev = cur
	}
}
