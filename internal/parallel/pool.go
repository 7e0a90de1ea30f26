// Package parallel is the shared worker-pool execution layer behind
// every multicore hot path in the repository: facility-location
// gain/absorb scans, per-class CRAIG fan-out, the blocked GEMM
// kernels in internal/tensor, and the chunked evaluation passes in
// internal/trainer.
//
// Design goals, in order:
//
//  1. Determinism. Results must be bit-identical run-to-run AND across
//     worker counts, so a laptop and a 64-core server select the same
//     subsets. Reductions therefore run over a fixed chunk grid that
//     depends only on the problem size (never on the worker count or
//     on goroutine scheduling), and partial results are combined in
//     ascending chunk order.
//  2. Zero steady-state allocation. Loop execution reuses persistent
//     helper goroutines (parked on per-helper channels), job
//     descriptors from a FreeList, and a free list of worker IDs, so a
//     dispatch allocates nothing once warm. Callers that also need
//     allocation-free bodies pre-bind their closures to recycled state
//     and key per-worker scratch off the WorkerLocal arena type.
//  3. Zero-cost serial mode. With one worker every loop runs inline on
//     the calling goroutine — no channels, no goroutines — so
//     Workers=1 reproduces a purely serial execution.
//  4. Nestability. PerClass dispatches classes to the pool while each
//     class's facility kernel also uses the pool. A dispatcher only
//     hands work to helpers that are already idle and otherwise runs
//     the loop itself, so nesting can never deadlock: the inner loop
//     always makes progress on the calling goroutine.
//
// # One loop body
//
// Both loops, ForChunks and For, run bodies of one shape,
// func(w, i, lo, hi int): item i (a chunk or a band) covers [lo, hi),
// and w is a small dense worker ID that is unique among all
// *concurrently executing* loop participants — including participants
// of nested loops — and is recycled through a LIFO free list when a
// participant finishes. Consecutive loops therefore see the same few
// IDs over and over, which keeps WorkerLocal scratch arenas warm, while
// a nested loop's participants always draw IDs disjoint from every
// enclosing loop's. IDs say nothing about *which* item a worker runs
// (that is scheduling, which must never affect results); they exist
// solely so bodies can own per-worker scratch without locking.
//
// The pool mirrors the paper's FPGA compute units: the selection kernel
// of §3.1 evaluates candidate distances on parallel lanes and merges
// them through a fixed adder tree — the chunk grid plays the role of
// the lanes and the ordered reduction the role of the tree.
package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// reduceChunk is the fixed chunk size of the deterministic reduction
// grid. It depends only on this constant and the problem size — never
// on the worker count — so chunked sums associate identically no
// matter how many goroutines execute them.
const reduceChunk = 512

// Pool executes chunked data-parallel loops on up to Workers
// participants (the calling goroutine plus idle persistent helpers).
// The zero value is not useful; use New or Default. A Pool is safe for
// concurrent use; SetWorkers may be called at any time and only
// affects scheduling, never results.
type Pool struct {
	workers atomic.Int32
}

// New returns a pool running at most workers participants per loop.
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	p := &Pool{}
	p.SetWorkers(workers)
	return p
}

var defaultPool = New(0)

// Default returns the process-wide shared pool used by the tensor and
// selection packages. Its worker count is a scheduling knob only:
// changing it never changes any computed result.
func Default() *Pool { return defaultPool }

// SetDefaultWorkers resizes the shared pool (0 → runtime.NumCPU()).
func SetDefaultWorkers(n int) { defaultPool.SetWorkers(n) }

// SetWorkers resizes the pool (0 or negative → runtime.NumCPU()). A
// count beyond the int32 range saturates: no loop can use more
// participants than it has items, and far fewer helpers exist.
func (p *Pool) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p.workers.Store(int32(min(n, math.MaxInt32)))
}

// Workers reports the current worker cap.
func (p *Pool) Workers() int { return int(p.workers.Load()) }

// Chunks returns the number of fixed-size reduction chunks covering
// [0, n). It is a pure function of n, so a caller can pre-size a
// partial-result slice that stays valid for any worker count.
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + reduceChunk - 1) / reduceChunk
}

// bandBounds returns the half-open range [lo, hi) of item i when [0, n)
// is cut into grain-wide items; chunk c of the fixed grid is
// bandBounds(c, reduceChunk, n).
func bandBounds(i, grain, n int) (lo, hi int) {
	lo = i * grain
	return lo, min(lo+grain, n)
}

// ---------------------------------------------------------------------
// Worker identity
// ---------------------------------------------------------------------

// workerIDs hands out the dense per-participant IDs. The free list is
// LIFO so the IDs a finished loop releases are the first ones the next
// loop acquires — per-worker scratch keyed on the ID stays warm across
// loops. Only concurrent participants (which includes nesting) push
// the high-water mark up.
var workerIDs struct {
	mu   sync.Mutex
	free []int
	next int
}

func acquireWorkerID() int {
	ids := &workerIDs
	ids.mu.Lock()
	var id int
	if n := len(ids.free); n > 0 {
		id = ids.free[n-1]
		ids.free = ids.free[:n-1]
	} else {
		id = ids.next
		ids.next++
	}
	ids.mu.Unlock()
	return id
}

func releaseWorkerID(id int) {
	ids := &workerIDs
	ids.mu.Lock()
	ids.free = append(ids.free, id)
	ids.mu.Unlock()
}

// ---------------------------------------------------------------------
// Job descriptors and persistent helpers
// ---------------------------------------------------------------------

// loopJob describes one dispatched loop: n items, each grain wide, over
// [0, total). Jobs are recycled through jobs, so steady-state dispatch
// allocates nothing; the body is cleared on release.
type loopJob struct {
	n     int
	total int
	grain int
	body  func(w, i, lo, hi int)

	next atomic.Int64
	wg   sync.WaitGroup
}

// work drains the job's item counter on the calling goroutine under a
// freshly acquired worker ID.
func (j *loopJob) work() {
	w := acquireWorkerID()
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			break
		}
		lo, hi := bandBounds(i, j.grain, j.total)
		j.body(w, i, lo, hi)
	}
	releaseWorkerID(w)
}

var jobs FreeList[loopJob]

// helper is one persistent worker goroutine, parked on its own
// channel. Helpers are shared process-wide across all Pools: a helper
// is a generic loop executor, and the per-dispatch worker cap comes
// from the dispatching pool.
type helper struct {
	ch chan *loopJob
}

// maxHelpers bounds the persistent helper goroutines ever spawned — a
// backstop against pathological nesting depth, far above any real
// demand (demand is nesting depth × workers). When the cap is hit a
// dispatch simply proceeds with fewer helpers; the dispatcher itself
// always runs the loop, so progress never depends on helper supply.
const maxHelpers = 256

var helperPool struct {
	mu      sync.Mutex
	idle    []*helper
	spawned int
}

// engageHelpers hands j to up to want idle helpers, lazily spawning
// new ones while under the cap. Each engaged helper is registered on
// j.wg before the job is sent, so the dispatcher's Wait observes every
// participant. Sends never block: only parked helpers are engaged and
// their channels hold one job.
func engageHelpers(j *loopJob, want int) {
	hp := &helperPool
	hp.mu.Lock()
	for e := 0; e < want; e++ {
		var h *helper
		if n := len(hp.idle); n > 0 {
			h = hp.idle[n-1]
			hp.idle = hp.idle[:n-1]
		} else if hp.spawned < maxHelpers {
			h = &helper{ch: make(chan *loopJob, 1)}
			hp.spawned++
			go h.loop()
		} else {
			break
		}
		j.wg.Add(1)
		h.ch <- j
	}
	hp.mu.Unlock()
}

// loop is a helper's life: receive a job, drain it, sign off, park
// again.
func (h *helper) loop() {
	for j := range h.ch {
		j.work()
		j.wg.Done() // last touch: the dispatcher may recycle j now
		hp := &helperPool
		hp.mu.Lock()
		hp.idle = append(hp.idle, h)
		hp.mu.Unlock()
	}
}

// dispatch runs the n items of [0, total) cut grain wide on w > 1
// participants: it fans the job out to w-1 idle helpers, works the
// loop on the calling goroutine, waits for every engaged helper, and
// recycles the descriptor.
func dispatch(w, n, grain, total int, body func(w, i, lo, hi int)) {
	j := jobs.Get()
	if j == nil {
		j = new(loopJob)
	}
	j.n, j.grain, j.total, j.body = n, grain, total, body
	engageHelpers(j, w-1)
	j.work()
	j.wg.Wait()
	j.body = nil
	j.next.Store(0)
	jobs.Put(j)
}

// ---------------------------------------------------------------------
// Loop API
// ---------------------------------------------------------------------

// ForChunks runs body(w, c, lo, hi) for every chunk c of the fixed grid
// over [0, n), on up to Workers participants; w is the participant's
// worker ID (see the package comment). Each chunk executes exactly
// once; chunks touched by different participants are disjoint, so
// bodies writing to per-index or per-chunk slots need no locking.
// Bodies must not assume any execution order.
func (p *Pool) ForChunks(n int, body func(w, c, lo, hi int)) {
	nchunks := Chunks(n)
	if nchunks == 0 {
		return
	}
	if w := min(p.Workers(), nchunks); w > 1 {
		dispatch(w, nchunks, reduceChunk, n, body)
		return
	}
	id := acquireWorkerID()
	for c := 0; c < nchunks; c++ {
		lo, hi := bandBounds(c, reduceChunk, n)
		body(id, c, lo, hi)
	}
	releaseWorkerID(id)
}

// SumChunks evaluates body over every chunk of the fixed grid and
// returns the partial sums combined in ascending chunk order. Because
// the grid and the combination order are independent of the worker
// count, the result is bit-identical for any Workers setting.
func (p *Pool) SumChunks(n int, body func(lo, hi int) float64) float64 {
	nchunks := Chunks(n)
	switch nchunks {
	case 0:
		return 0
	case 1:
		return body(0, n)
	}
	partial := make([]float64, nchunks)
	p.ForChunks(n, func(_, c, lo, hi int) {
		partial[c] = body(lo, hi)
	})
	var sum float64
	for _, s := range partial {
		sum += s
	}
	return sum
}

// For runs body(w, b, lo, hi) over [0, n) split into contiguous
// grain-sized bands b on up to Workers participants. Unlike ForChunks
// the banding MAY depend on the worker count, so For is only for
// bodies whose results are independent of how the range is split —
// e.g. loops writing each index exactly once. grain <= 0 picks a band
// size automatically. With one worker (or a single band) body(w, 0, 0,
// n) runs inline.
func (p *Pool) For(n, grain int, body func(w, b, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if grain <= 0 {
		// Aim for a few bands per worker to absorb imbalance.
		grain = max(n/w/4, 1)
	}
	bands := (n + grain - 1) / grain
	if w = min(w, bands); w > 1 {
		dispatch(w, bands, grain, n, body)
		return
	}
	id := acquireWorkerID()
	body(id, 0, 0, n)
	releaseWorkerID(id)
}
