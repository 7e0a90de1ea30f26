package parallel

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkerIDsUniqueAmongConcurrentParticipants is the worker-ID
// contract: no two loop participants that execute concurrently —
// including participants of loops nested inside other loops' bodies —
// ever hold the same ID. Each body claims its ID in a CAS-guarded
// table for the duration of one item; a failed claim means two live
// participants shared an ID.
func TestWorkerIDsUniqueAmongConcurrentParticipants(t *testing.T) {
	p := New(4)
	var claimed [1024]atomic.Int32
	claim := func(w int) {
		if w < 0 || w >= len(claimed) {
			t.Errorf("worker ID %d out of the expected dense range", w)
			return
		}
		if !claimed[w].CompareAndSwap(0, 1) {
			t.Errorf("worker ID %d held by two concurrent participants", w)
		}
	}
	release := func(w int) { claimed[w].Store(0) }

	for iter := 0; iter < 20; iter++ {
		p.For(64, 4, func(w, _, lo, hi int) {
			claim(w)
			// Nested dispatch from inside a participant: the inner
			// loop's IDs must be disjoint from every outer holder's.
			p.ForChunks(2048, func(iw, c, ilo, ihi int) {
				if iw == w {
					t.Errorf("nested participant reused enclosing worker ID %d", w)
				}
				claim(iw)
				release(iw)
			})
			release(w)
		})
	}
}

// TestWorkerIDsReusedAcrossLoops pins the warm-arena property: once a
// workload shape has run, repeating it draws the same IDs from the
// free list instead of minting fresh ones, so WorkerLocal slots keyed
// on the IDs stay warm.
func TestWorkerIDsReusedAcrossLoops(t *testing.T) {
	p := New(4)
	for i := 0; i < 3; i++ { // warm the ID pool and helper set
		p.ForChunks(8192, func(w, c, lo, hi int) {})
	}
	// workerIDs.next is the high-water mark: every ID ever handed out
	// is below it. No loop is running when it is read here.
	high := workerIDs.next
	for i := 0; i < 50; i++ {
		p.ForChunks(8192, func(w, c, lo, hi int) {
			if w >= high {
				t.Errorf("loop %d minted fresh worker ID %d instead of reusing (< %d)", i, w, high)
			}
		})
	}
	if got := workerIDs.next; got != high {
		t.Fatalf("worker ID high-water mark grew %d -> %d across identical loops; IDs are not being recycled", high, got)
	}
}

// TestWorkerLocalSlotsAreStable verifies Get returns the same slot for
// the same ID every time, creates independent slots per ID, and that
// the slot table holds exactly the created slots.
func TestWorkerLocalSlotsAreStable(t *testing.T) {
	type scratch struct{ buf []float64 }
	created := 0
	wl := NewWorkerLocal(func() *scratch {
		created++
		return &scratch{buf: make([]float64, 8)}
	})
	a, b := wl.Get(0), wl.Get(3)
	if a == b {
		t.Fatal("distinct worker IDs share a slot")
	}
	for i := 0; i < 100; i++ {
		if wl.Get(0) != a || wl.Get(3) != b {
			t.Fatal("WorkerLocal slot moved between Gets")
		}
	}
	if created != 2 {
		t.Fatalf("newFn ran %d times, want 2", created)
	}
	var held []int
	for w, v := range *wl.slots.Load() {
		if v != nil {
			held = append(held, w)
		}
	}
	if !slices.Equal(held, []int{0, 3}) {
		t.Fatalf("slot table holds %v, want exactly [0 3]", held)
	}
	if nilNew := NewWorkerLocal[int](nil).Get(2); nilNew == nil {
		t.Fatal("nil newFn must fall back to new(T)")
	}
}

// TestWorkerLocalConcurrentGrow hammers the copy-on-write grow path
// from many goroutines (meaningful under -race): every goroutine must
// end up with its own slot and no Get may observe a torn table.
func TestWorkerLocalConcurrentGrow(t *testing.T) {
	wl := NewWorkerLocal[atomic.Int64](nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				wl.Get(id).Add(1)
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for _, v := range *wl.slots.Load() {
		total += v.Load()
	}
	if total != 16*200 {
		t.Fatalf("counted %d increments, want %d", total, 16*200)
	}
}

// TestSetWorkersMidStream resizes the pool concurrently with running
// loops (the -race run is the point): every index must still be
// visited exactly once per loop, at any moment of the resize.
func TestSetWorkersMidStream(t *testing.T) {
	p := New(4)
	stop := make(chan struct{})
	var resizes sync.WaitGroup
	resizes.Add(1)
	go func() {
		defer resizes.Done()
		w := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.SetWorkers(w%8 + 1)
			w++
		}
	}()
	const n = 4096
	counts := make([]atomic.Int32, n)
	for iter := 0; iter < 50; iter++ {
		for i := range counts {
			counts[i].Store(0)
		}
		p.ForChunks(n, func(w, c, lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("iter %d: index %d visited %d times during live resize", iter, i, got)
			}
		}
	}
	close(stop)
	resizes.Wait()
}

// TestDispatchSteadyStateAllocs locks in the zero-allocation dispatch:
// once the helper set, job free list, and worker IDs are warm, a loop
// with a pre-bound body allocates nothing — through the chunk grid, a
// multi-band For, and a single-band For that runs inline — the
// property the training epoch's 0 allocs/epoch budget rests on.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := New(4)
	sink := make([]int64, Chunks(1<<15))
	body := func(w, i, lo, hi int) { sink[i%len(sink)] = int64(hi - lo) }
	for _, tc := range []struct {
		name string
		loop func()
	}{
		{"ForChunks", func() { p.ForChunks(1<<15, body) }},
		{"For multi-band", func() { p.For(1<<15, 512, body) }},
		{"For single-band", func() { p.For(1<<15, 1<<15, body) }},
	} {
		for i := 0; i < 3; i++ {
			tc.loop() // spawn helpers, fill the job and ID free lists
		}
		if avg := testing.AllocsPerRun(100, tc.loop); avg > 0 {
			t.Errorf("steady-state %s allocates %.2f times per dispatch, want 0", tc.name, avg)
		}
	}
}
