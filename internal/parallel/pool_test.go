package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForChunksCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, reduceChunk - 1, reduceChunk, reduceChunk + 1, 5000} {
		for _, w := range []int{1, 2, 7} {
			p := New(w)
			hits := make([]int32, n)
			p.ForChunks(n, func(_, c, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestSumChunksBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The sum of ill-conditioned float terms depends on association
	// order; the fixed chunk grid must make it identical for every
	// worker count.
	n := 10_000
	vals := make([]float64, n)
	x := 1.0
	for i := range vals {
		x = float64(x*1.0000001) + 1e-7
		vals[i] = x * float64(1+i%17)
	}
	body := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	want := New(1).SumChunks(n, body)
	for _, w := range []int{2, 3, 4, runtime.NumCPU()} {
		if got := New(w).SumChunks(n, body); got != want {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, want)
		}
	}
}

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000} {
		for _, w := range []int{1, 3, 8} {
			p := New(w)
			hits := make([]int32, n)
			p.For(n, 0, func(_, _, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

// TestForGrainOneRunsEveryItemOnce is the per-item fan-out PerClassWith
// and the streaming sieve use: grain 1 makes every index its own band.
func TestForGrainOneRunsEveryItemOnce(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		p := New(w)
		n := 40
		done := make([]int32, n)
		p.For(n, 1, func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&done[i], 1)
			}
		})
		for i, d := range done {
			if d != 1 {
				t.Fatalf("w=%d: item %d ran %d times", w, i, d)
			}
		}
	}
}

func TestNestedPoolUseDoesNotDeadlock(t *testing.T) {
	p := New(4)
	var total atomic.Int64
	p.For(8, 1, func(_, _, lo, hi int) {
		for range hi - lo {
			p.For(100, 0, func(_, _, lo, hi int) {
				total.Add(int64(hi - lo))
			})
			p.ForChunks(3*reduceChunk, func(_, _, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	})
	if want := int64(8 * (100 + 3*reduceChunk)); total.Load() != want {
		t.Fatalf("nested total = %d, want %d", total.Load(), want)
	}
}

// TestSetWorkersSaturates pins the worker cap of counts past the int32
// range: the cap stays positive (it once wrapped to 0 or below, and
// For's automatic grain divided by it), and both loops still visit
// every index exactly once.
func TestSetWorkersSaturates(t *testing.T) {
	for _, n := range []int{1 << 31, 1 << 32, 1<<32 + 2, math.MaxInt} {
		p := New(n)
		if p.Workers() < 1 {
			t.Fatalf("New(%d).Workers() = %d, want >= 1", n, p.Workers())
		}
		const size = 3*reduceChunk + 5
		hits := make([]int32, size)
		visit := func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}
		p.For(size, 0, visit)
		p.ForChunks(size, visit)
		for i, h := range hits {
			if h != 2 {
				t.Fatalf("New(%d): index %d visited %d times, want once per loop", n, i, h)
			}
		}
	}
}

func TestWorkersDefaultsToNumCPU(t *testing.T) {
	if got := New(0).Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := New(-3).Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	p := New(6)
	if got := p.Workers(); got != 6 {
		t.Fatalf("Workers() = %d, want 6", got)
	}
	p.SetWorkers(2)
	if got := p.Workers(); got != 2 {
		t.Fatalf("after SetWorkers(2): %d", got)
	}
}

func TestChunkBoundsPartitionRange(t *testing.T) {
	n := 3*reduceChunk + 17
	prev := 0
	for c := 0; c < Chunks(n); c++ {
		lo, hi := bandBounds(c, reduceChunk, n)
		if lo != prev || hi <= lo {
			t.Fatalf("chunk %d bounds [%d,%d) not contiguous from %d", c, lo, hi, prev)
		}
		prev = hi
	}
	if prev != n {
		t.Fatalf("chunks cover [0,%d), want [0,%d)", prev, n)
	}
}
