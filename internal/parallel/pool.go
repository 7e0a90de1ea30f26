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
//     helper goroutines (parked on per-helper channels), pooled job
//     descriptors, and a free list of worker IDs, so a dispatch
//     allocates nothing once warm. Callers that also need allocation-
//     free bodies pre-bind their closures to pooled state and key
//     per-worker scratch off the WorkerLocal arena type.
//  3. Zero-cost serial mode. With one worker every loop runs inline on
//     the calling goroutine — no channels, no goroutines, no atomics —
//     so Workers=1 reproduces a purely serial execution.
//  4. Nestability. PerClass dispatches classes to the pool while each
//     class's facility kernel also uses the pool. A dispatcher only
//     hands work to helpers that are already idle and otherwise runs
//     the loop itself, so nesting can never deadlock: the inner loop
//     always makes progress on the calling goroutine.
//
// # Worker identity
//
// The W-suffixed loop variants (ForChunksW, ForW) pass each body a
// small dense worker ID that is unique among all *concurrently
// executing* loop participants — including participants of nested
// loops — and is recycled through a LIFO free list when a participant
// finishes. Consecutive loops therefore see the same few IDs over and
// over, which keeps WorkerLocal scratch arenas warm, while a nested
// loop's participants always draw IDs disjoint from every enclosing
// loop's. IDs say nothing about *which* chunk a worker runs (that is
// scheduling, which must never affect results); they exist solely so
// bodies can own per-worker scratch without locking.
//
// The pool mirrors the paper's FPGA compute units: the selection kernel
// of §3.1 evaluates candidate distances on parallel lanes and merges
// them through a fixed adder tree — the chunk grid plays the role of
// the lanes and the ordered reduction the role of the tree.
package parallel

import (
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

// SetWorkers resizes the pool (0 or negative → runtime.NumCPU()).
func (p *Pool) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p.workers.Store(int32(n))
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

// chunkBounds returns the half-open range [lo, hi) of chunk c.
func chunkBounds(c, n int) (lo, hi int) {
	lo = c * reduceChunk
	hi = lo + reduceChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ---------------------------------------------------------------------
// Worker identity
// ---------------------------------------------------------------------

// workerIDs hands out the dense per-participant IDs of the W-variant
// loops. The free list is LIFO so the IDs a finished loop releases are
// the first ones the next loop acquires — per-worker scratch keyed on
// the ID stays warm across loops. Only concurrent participants (which
// includes nesting) push the high-water mark up.
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

type jobKind uint8

const (
	jobChunks jobKind = iota
	jobChunksW
	jobBands
	jobBandsW
	jobTasks
)

// loopJob describes one dispatched loop. Jobs are recycled through a
// free list, so steady-state dispatch allocates nothing; every
// reference-carrying field is cleared on release.
type loopJob struct {
	kind  jobKind
	n     int // item count: chunks, bands, or tasks
	total int // original range length for bound computation
	grain int // band width for jobBands/jobBandsW

	chunk  func(c, lo, hi int)
	chunkW func(w, c, lo, hi int)
	band   func(lo, hi int)
	bandW  func(w, lo, hi int)
	tasks  []func()

	next atomic.Int64
	wg   sync.WaitGroup
}

// needsID reports whether bodies of this job receive a worker ID.
func (j *loopJob) needsID() bool { return j.kind == jobChunksW || j.kind == jobBandsW }

// work drains the job's item counter on the calling goroutine. w is
// the participant's worker ID (ignored by the ID-less kinds).
func (j *loopJob) work(w int) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		switch j.kind {
		case jobChunks:
			lo, hi := chunkBounds(i, j.total)
			j.chunk(i, lo, hi)
		case jobChunksW:
			lo, hi := chunkBounds(i, j.total)
			j.chunkW(w, i, lo, hi)
		case jobBands:
			lo, hi := bandBounds(i, j.grain, j.total)
			j.band(lo, hi)
		case jobBandsW:
			lo, hi := bandBounds(i, j.grain, j.total)
			j.bandW(w, lo, hi)
		case jobTasks:
			j.tasks[i]()
		}
	}
}

func bandBounds(b, grain, n int) (lo, hi int) {
	lo = b * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

var jobFree struct {
	mu   sync.Mutex
	list []*loopJob
}

func getJob() *loopJob {
	jf := &jobFree
	jf.mu.Lock()
	var j *loopJob
	if n := len(jf.list); n > 0 {
		j = jf.list[n-1]
		jf.list = jf.list[:n-1]
	}
	jf.mu.Unlock()
	if j == nil {
		j = &loopJob{}
	}
	return j
}

func putJob(j *loopJob) {
	j.chunk, j.chunkW, j.band, j.bandW, j.tasks = nil, nil, nil, nil, nil
	j.next.Store(0)
	jf := &jobFree
	jf.mu.Lock()
	jf.list = append(jf.list, j)
	jf.mu.Unlock()
}

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
	if want <= 0 {
		return
	}
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

// loop is a helper's life: receive a job, drain it under a freshly
// acquired worker ID, sign off, park again.
func (h *helper) loop() {
	for j := range h.ch {
		if j.needsID() {
			w := acquireWorkerID()
			j.work(w)
			releaseWorkerID(w)
		} else {
			j.work(-1)
		}
		j.wg.Done() // last touch: the dispatcher may recycle j now
		hp := &helperPool
		hp.mu.Lock()
		hp.idle = append(hp.idle, h)
		hp.mu.Unlock()
	}
}

// runJob fans j out to w-1 idle helpers, participates in the loop on
// the calling goroutine, waits for every engaged helper, and recycles
// the descriptor.
func (p *Pool) runJob(j *loopJob, w int) {
	engageHelpers(j, w-1)
	if j.needsID() {
		id := acquireWorkerID()
		j.work(id)
		releaseWorkerID(id)
	} else {
		j.work(-1)
	}
	j.wg.Wait()
	putJob(j)
}

// ---------------------------------------------------------------------
// Loop API
// ---------------------------------------------------------------------

// ForChunks runs body(c, lo, hi) for every chunk of the fixed grid over
// [0, n), on up to Workers participants. Each chunk executes exactly
// once; chunks touched by different participants are disjoint, so
// bodies writing to per-index or per-chunk slots need no locking.
// Bodies must not assume any execution order.
func (p *Pool) ForChunks(n int, body func(c, lo, hi int)) {
	nchunks := Chunks(n)
	if nchunks == 0 {
		return
	}
	w := p.Workers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		for c := 0; c < nchunks; c++ {
			lo, hi := chunkBounds(c, n)
			body(c, lo, hi)
		}
		return
	}
	j := getJob()
	j.kind, j.n, j.total, j.chunk = jobChunks, nchunks, n, body
	p.runJob(j, w)
}

// ForChunksW is ForChunks with worker identity: body additionally
// receives the participant's worker ID (see the package comment),
// stable for the duration of the loop and safe to key WorkerLocal
// scratch on. The ID carries no information about which chunks a
// participant runs — results must never depend on it.
func (p *Pool) ForChunksW(n int, body func(w, c, lo, hi int)) {
	nchunks := Chunks(n)
	if nchunks == 0 {
		return
	}
	w := p.Workers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		id := acquireWorkerID()
		for c := 0; c < nchunks; c++ {
			lo, hi := chunkBounds(c, n)
			body(id, c, lo, hi)
		}
		releaseWorkerID(id)
		return
	}
	j := getJob()
	j.kind, j.n, j.total, j.chunkW = jobChunksW, nchunks, n, body
	p.runJob(j, w)
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
	p.ForChunks(n, func(c, lo, hi int) {
		partial[c] = body(lo, hi)
	})
	var sum float64
	for _, s := range partial {
		sum += s
	}
	return sum
}

// For runs body over [0, n) split into contiguous grain-sized bands on
// up to Workers participants. Unlike ForChunks the banding MAY depend
// on the worker count, so For is only for bodies whose results are
// independent of how the range is split — e.g. loops writing each
// index exactly once. grain <= 0 picks a band size automatically.
// With one worker (or a single band) body(0, n) runs inline.
func (p *Pool) For(n, grain int, body func(lo, hi int)) {
	w, bands, grain := p.bandPlan(n, grain)
	if n <= 0 {
		return
	}
	if w <= 1 || bands <= 1 {
		body(0, n)
		return
	}
	j := getJob()
	j.kind, j.n, j.total, j.grain, j.band = jobBands, bands, n, grain, body
	p.runJob(j, w)
}

// ForW is For with worker identity, mirroring ForChunksW: body
// receives the participant's worker ID ahead of its band bounds. The
// single-band inline path still acquires an ID, so bodies can key
// scratch on it unconditionally.
func (p *Pool) ForW(n, grain int, body func(w, lo, hi int)) {
	w, bands, grain := p.bandPlan(n, grain)
	if n <= 0 {
		return
	}
	if w <= 1 || bands <= 1 {
		id := acquireWorkerID()
		body(id, 0, n)
		releaseWorkerID(id)
		return
	}
	j := getJob()
	j.kind, j.n, j.total, j.grain, j.bandW = jobBandsW, bands, n, grain, body
	p.runJob(j, w)
}

// bandPlan resolves the participant count, band count, and band width
// of a For/ForW dispatch.
func (p *Pool) bandPlan(n, grain int) (w, bands, g int) {
	if n <= 0 {
		return 0, 0, 1
	}
	w = p.Workers()
	if grain <= 0 {
		// Aim for a few bands per worker to absorb imbalance.
		grain = n / (w * 4)
		if grain < 1 {
			grain = 1
		}
	}
	bands = (n + grain - 1) / grain
	if w > bands {
		w = bands
	}
	return w, bands, grain
}

// Run executes every task, at most Workers at a time. Task index order
// of completion is unspecified; with one worker tasks run inline in
// slice order. Tasks writing results should write to distinct slots of
// a caller-owned slice so the merge order is the caller's.
func (p *Pool) Run(tasks []func()) {
	n := len(tasks)
	if n == 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	j := getJob()
	j.kind, j.n, j.total, j.tasks = jobTasks, n, n, tasks
	p.runJob(j, w)
}
