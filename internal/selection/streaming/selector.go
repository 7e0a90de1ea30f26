// Package streaming implements NeSSA selection as a single sequential
// pass over the stored dataset, for datasets that do not fit in the
// SmartSSD's 4 GB device DRAM — let alone host memory.
//
// The batch path (internal/selection) materializes every candidate's
// gradient embedding and runs lazy greedy over the full similarity
// structure: O(n·dim) resident state plus O(n·k) gain scans. This
// package replaces it with two components that consume the stream
// record by record:
//
//   - a sieve-streaming facility-location maximizer per class
//     (classSieve): a geometric threshold ladder with per-threshold
//     candidate buffers, fed by a fixed-size uniform reservoir that
//     stands in for the full pairwise similarity structure;
//   - a chunked sequential-scan driver (ScanRecords) that double-
//     buffers NAND reads against sieve compute.
//
// The selection state is sized against internal/fpga's on-chip memory
// model: it must fit the BRAM left over after the selection kernel is
// placed (KernelConfig.AvailableBufferBytes), and NewSelector fails,
// before allocating it, if it cannot.
package streaming

import (
	"fmt"
	"math"
	"slices"

	"nessa/internal/cpu"
	"nessa/internal/fpga"
	"nessa/internal/parallel"
	"nessa/internal/selection"
	"nessa/internal/tensor"
)

// Config parameterizes a streaming Selector.
type Config struct {
	Classes int // label classes
	Dim     int // gradient-embedding dimension
	K       int // total selection budget across classes

	// ClassCounts are the expected per-class candidate totals, used
	// only to split K across classes exactly like the batch CRAIG path
	// (selection.SplitBudgetCounts). nil assumes balanced classes.
	ClassCounts []int

	Eps float64 // threshold-ladder ratio (1+Eps); default 0.25
	// C0 is the facility-location similarity offset c0 − ‖a−b‖².
	// The default 8 is the universal bound 4·sup‖g‖² for softmax
	// gradient embeddings (‖softmax(z)−onehot‖² ≤ 2), so no stream
	// statistics are needed up front. Override for other embeddings.
	C0 float64

	Reservoir int   // per-class reservoir rows; 0 = derive from MemBudget
	MemBudget int64 // on-chip state budget in bytes; 0 = DefaultMemoryBudget()

	// SketchEvery is ignored. It configured a gradient sketch this
	// package no longer has and stays only because the frozen
	// internal/bench/e2e sets it; ROADMAP item 12b deletes it.
	SketchEvery int

	Seed uint64
}

// DefaultMemoryBudget reports the on-chip bytes available to streaming
// selection state: the BRAM the KU15P has left after the deployed
// NeSSA kernel is placed, per internal/fpga's resource model.
func DefaultMemoryBudget() int64 {
	return fpga.DefaultKernel().AvailableBufferBytes(fpga.PaperKU15P())
}

func (c Config) withDefaults() Config {
	if c.Eps <= 0 {
		c.Eps = 0.25
	}
	if c.C0 <= 0 {
		c.C0 = 8
	}
	if c.MemBudget == 0 {
		c.MemBudget = DefaultMemoryBudget()
	}
	return c
}

// Stats reports what a Selector did over the stream.
type Stats struct {
	Records      int   `json:"records"`
	Reservoir    int   `json:"reservoir"`    // rows per class
	StateBytes   int64 `json:"stateBytes"`   // persistent selection state
	BudgetBytes  int64 `json:"budgetBytes"`  // the on-chip budget it must fit
	ActiveLevels int   `json:"activeLevels"` // ladder rungs alive at finish
	PerClassSeen []int `json:"perClassSeen"`
	PerClassK    []int `json:"perClassK"`

	// Ladder work, summed over classes and records: live rungs a record
	// was offered to, rungs the saturation bound skipped, reservoir
	// scans run, and scans that ended in an accept.
	RungVisits  int64 `json:"rungVisits"`
	RungPruned  int64 `json:"rungPruned"`
	RungScans   int64 `json:"rungScans"`
	RungAccepts int64 `json:"rungAccepts"`
}

// Selector consumes a gradient-embedding stream in batches and selects
// a weighted coreset in one pass, in fixed memory. All persistent state
// (reservoirs, threshold ladders, backup buffers) is preallocated
// against the on-chip budget at construction; Push performs no
// per-record allocation in steady state. Results are bit-identical for
// a fixed seed at any worker count: the batched similarity GEMM runs on
// the shared pool's fixed chunk grid, and each class's sieve consumes
// that class's records in stream order and shares no state with
// another class's.
type Selector struct {
	cfg     Config
	budgets []int
	sieves  []*classSieve // nil where budgets[ci] == 0
	rcap    int           // reservoir rows per class
	seen    int

	// Batch staging (device-DRAM scratch, not on-chip state): one arena
	// sized by batch rows and carved into per-class views. Class rows
	// sum to batch rows, so it grows only when the batch itself does.
	order     []int           // batch rows bucketed by class, stream order within each
	start     []int           // class ci owns order[start[ci]:start[ci+1]]
	gatherBuf []float32       // batch rows × Dim
	simsBuf   []float32       // batch rows × rcap
	rawV      []float64       // per-row singleton value Σᵢ sims[i]
	top       []float32       // per-row largest similarity maxᵢ sims[i]
	gather    []tensor.Matrix // per-class views into gatherBuf
	sims      []tensor.Matrix // per-class views into simsBuf
	emb       *tensor.Matrix  // the batch being pushed, for the class passes
	pool      *parallel.Pool
	// sievePass and each class's transformRows, bound once so that a
	// Push dispatches them without allocating.
	sieveFn     func(w, i, lo, hi int)
	transformFn []func(w, c, lo, hi int)

	results  []classResult // per class: its share of the last Finish
	finishFn func(w, i, lo, hi int)
}

// NewSelector plans the selection state against the memory budget and
// preallocates it. It fails, before allocating more than the per-class
// budget split, if the plan cannot fit: every class must be able to hold
// the smallest sieve (one pick, 16 reservoir rows), and the classes with
// a budget must hold theirs with at least 16 reservoir rows each.
func NewSelector(cfg Config) (*Selector, error) {
	s := &Selector{pool: parallel.Default()}
	s.sieveFn, s.finishFn = s.sievePass, s.finishPass
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset starts a new stream under cfg, planning it exactly as
// NewSelector does and failing, before it touches any state, on the
// configs NewSelector rejects; after an error the selector still holds
// its previous stream. On success the selector is the one NewSelector(cfg)
// builds — Finish returns the same selection bit for bit — but its
// sieves and batch staging reuse the storage of the streams before it,
// growing only where the new plan is larger.
func (s *Selector) Reset(cfg Config) error {
	cfg, budgets, rcap, err := plan(cfg)
	if err != nil {
		return err
	}
	s.cfg, s.budgets, s.rcap, s.seen = cfg, budgets, rcap, 0
	s.start = grow(s.start, cfg.Classes+1)
	s.gather = grow(s.gather, cfg.Classes)
	s.sims = grow(s.sims, cfg.Classes)
	for ci := len(s.transformFn); ci < cfg.Classes; ci++ {
		s.transformFn = append(s.transformFn, func(_, _, lo, hi int) { s.transformRows(ci, lo, hi) })
	}
	s.sieves = grow(s.sieves, cfg.Classes)
	for ci, kc := range budgets {
		if kc == 0 {
			s.sieves[ci] = nil
			continue
		}
		if s.sieves[ci] == nil {
			s.sieves[ci] = &classSieve{}
		}
		s.sieves[ci].reset(ci, kc, cfg.Dim, rcap, maxLadderLevels(kc, cfg.Eps),
			cfg.Eps, float32(cfg.C0), selection.ClassStream(cfg.Seed, ci))
	}
	return nil
}

// plan validates cfg, fills its defaults, and splits its budget into the
// per-class picks and reservoir rows a Selector holds.
func plan(cfg Config) (_ Config, budgets []int, rcap int, err error) {
	if cfg.Classes < 1 || cfg.Dim < 1 || cfg.K < 1 {
		return cfg, nil, 0, fmt.Errorf("streaming: need Classes ≥ 1, Dim ≥ 1, K ≥ 1; got %d/%d/%d",
			cfg.Classes, cfg.Dim, cfg.K)
	}
	if math.IsNaN(cfg.Eps) || math.IsInf(cfg.Eps, 0) || math.IsNaN(cfg.C0) || math.IsInf(cfg.C0, 0) {
		return cfg, nil, 0, fmt.Errorf("streaming: Eps %g and C0 %g must be finite", cfg.Eps, cfg.C0)
	}
	cfg = cfg.withDefaults()
	if cfg.Eps > 3 || cfg.C0 > math.MaxFloat32 {
		return cfg, nil, 0, fmt.Errorf("streaming: need Eps ≤ 3 and C0 ≤ MaxFloat32; got %g/%g", cfg.Eps, cfg.C0)
	}
	// Bound Classes (and Dim) before any per-class slice is sized.
	fixed1, perRow1 := classBytes(1, cfg.Dim, cfg.Eps)
	if floor := fixed1 + float64(minReservoir*perRow1); float64(cfg.Classes)*floor > float64(cfg.MemBudget) {
		return cfg, nil, 0, fmt.Errorf("streaming: %d classes × %.0f bytes of minimal sieve state exceed the on-chip budget %d",
			cfg.Classes, floor, cfg.MemBudget)
	}
	if cfg.ClassCounts != nil && len(cfg.ClassCounts) != cfg.Classes {
		return cfg, nil, 0, fmt.Errorf("streaming: ClassCounts has %d entries, want %d", len(cfg.ClassCounts), cfg.Classes)
	}
	// Every pick holds at least one backup row, so a plan holds at most
	// maxPicks of them.
	maxPicks := int(cfg.MemBudget / (16 + 4*int64(cfg.Dim)))
	counts := cfg.ClassCounts
	if counts == nil {
		counts = make([]int, cfg.Classes)
		for i := range counts {
			counts[i] = min(cfg.K, maxPicks) + 1 // balanced and unconstraining
		}
	}
	total := 0
	for _, n := range counts {
		if n < 0 || n > math.MaxInt-total {
			return cfg, nil, 0, fmt.Errorf("streaming: class count %d is negative or takes the total past MaxInt", n)
		}
		total += n
	}
	k := min(cfg.K, total)
	if k > maxPicks {
		return cfg, nil, 0, fmt.Errorf("streaming: K = %d cannot fit the on-chip budget %d: each pick holds a %d-byte backup row",
			cfg.K, cfg.MemBudget, 16+4*cfg.Dim)
	}
	budgets = selection.SplitBudgetCounts(counts, k, total)

	rcap, planned, err := planState(cfg, budgets)
	if err != nil {
		return cfg, nil, 0, err
	}
	if planned > float64(cfg.MemBudget) {
		return cfg, nil, 0, fmt.Errorf("streaming: planned state %.0f bytes exceeds on-chip budget %d", planned, cfg.MemBudget)
	}
	return cfg, budgets, rcap, nil
}

// grow returns s with length n, reusing its storage when it has the
// capacity. The contents are whatever the storage held.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// minReservoir is the planner's floor on reservoir rows per class: below
// it the reservoir estimate stops being an estimate (DESIGN.md §4.10).
const minReservoir = 16

// classBytes splits the state classSieve.memoryBytes reports for a class
// with budget kc into its fixed part (ladder rungs, backup set) and the
// cost of each reservoir row (the row, its pending copy, norm, pending
// slot and mark, and one coverage entry per rung). float64, so that a
// hostile Config cannot overflow it; every count that fits a budget is
// exact.
func classBytes(kc, dim int, eps float64) (fixed, perRow float64) {
	ml, k, d := float64(maxLadderLevels(kc, eps)), float64(kc), float64(dim)
	row := float64(4 * d) // one float32 embedding
	return float64(ml*k*(8+row)) + float64(k*(16+row)), float64(8*d) + 13 + float64(4*ml)
}

// planState picks the per-class reservoir rows and returns them with the
// state bytes they plan, which equal MemoryBytes once the sieves exist.
// The rule: each class with a budget is charged its fixed bytes, and the
// reservoir takes what is left of 95 % of the budget, capped at 512 rows
// per class. An explicit Config.Reservoir is honored as given.
func planState(cfg Config, budgets []int) (rcap int, planned float64, err error) {
	var fixed, perRow float64
	for _, kc := range budgets {
		if kc > 0 {
			f, r := classBytes(kc, cfg.Dim, cfg.Eps)
			fixed += f
			perRow += r
		}
	}
	if perRow == 0 {
		return 0, 0, fmt.Errorf("streaming: every class budget is zero")
	}
	rcap = cfg.Reservoir
	if rcap == 0 {
		// 95 % of the budget without overflowing int64.
		avail := float64(cfg.MemBudget/100*95+cfg.MemBudget%100*95/100) - fixed
		rcap = int(max(min(avail/perRow, 512), 0))
	}
	if rcap < minReservoir {
		return 0, 0, fmt.Errorf("streaming: on-chip budget %d bytes cannot hold the minimal selection state (fixed %.0f + %d·%.0f per-row bytes)",
			cfg.MemBudget, fixed, minReservoir, perRow)
	}
	return rcap, fixed + float64(float64(rcap)*perRow), nil
}

// MemoryBytes reports the persistent selection-state bytes: every
// buffer that must survive across the whole pass (reservoirs, ladder
// buffers, backup sets). Batch staging scratch is device DRAM and not
// counted.
func (s *Selector) MemoryBytes() int64 {
	var b int64
	for _, cs := range s.sieves {
		if cs != nil {
			b += cs.memoryBytes()
		}
	}
	return b
}

// Push consumes one batch of the stream: emb holds the gradient
// embedding of each record (n × Dim, in stream order), labels the
// class of each. Batches may vary in size; records are identified by
// their global stream position. x is ignored: it fed a gradient sketch
// this package no longer has and stays only because the frozen
// internal/bench/e2e passes it; ROADMAP item 12b deletes it.
func (s *Selector) Push(emb, x *tensor.Matrix, labels []int) error {
	n := emb.Rows
	if len(labels) != n {
		return fmt.Errorf("streaming: %d labels for %d rows", len(labels), n)
	}
	if emb.Cols != s.cfg.Dim {
		return fmt.Errorf("streaming: embedding dim %d, want %d", emb.Cols, s.cfg.Dim)
	}
	// Bucket rows by class with a counting sort: stream order survives
	// within each class, and class ci's rows become rows
	// start[ci]..start[ci+1] of every staging buffer.
	start := s.start
	for ci := range start {
		start[ci] = 0
	}
	for _, y := range labels {
		if y < 0 || y >= s.cfg.Classes {
			return fmt.Errorf("streaming: label %d out of range [0,%d)", y, s.cfg.Classes)
		}
		start[y+1]++
	}
	for ci := 0; ci < s.cfg.Classes; ci++ {
		start[ci+1] += start[ci]
	}
	// Staging grows with the batch, and with Dim and the reservoir rows
	// of a Reset; it is never shrunk.
	s.order = grow(s.order, n)
	s.gatherBuf = grow(s.gatherBuf, n*s.cfg.Dim)
	s.simsBuf = grow(s.simsBuf, n*s.rcap)
	s.rawV = grow(s.rawV, n)
	s.top = grow(s.top, n)
	order := s.order
	for r, y := range labels {
		order[start[y]] = r
		start[y]++
	}
	// The fill advanced every start[ci] to the end of class ci's rows.
	copy(start[1:], start[:s.cfg.Classes])
	start[0] = 0

	// One pool task per class (sievePass). A class sieve owns its ladder,
	// reservoir, pending buffer, backup set and RNG, and reads only its
	// own staging rows, so the tasks share nothing and the result does
	// not depend on how the pool schedules them.
	s.emb = emb
	s.pool.For(s.cfg.Classes, 1, s.sieveFn)
	s.emb = nil
	s.seen += n
	return nil
}

// sievePass runs classes [lo, hi) of the current batch. Per class:
// reservoir warm-up, the batched similarity GEMM against the frozen
// reservoir, the per-row transform that turns dot products into
// clamped similarities and singleton values, the class's rows through
// its sieve and reservoir policy in stream order, and last the staged
// reservoir replacements.
func (s *Selector) sievePass(_, _, lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		cs := s.sieves[ci]
		base, end := s.start[ci], s.start[ci+1]
		if cs == nil || base == end {
			continue
		}
		rows := s.order[base:end]
		cs.prefill = 0
		for _, r := range rows {
			if cs.resCount == cs.rcap {
				break
			}
			cs.prefillReservoir(s.emb.Row(r))
			cs.prefill++
		}
		m := end - base
		gather, sims := &s.gather[ci], &s.sims[ci]
		*gather = tensor.Matrix{Rows: m, Cols: cs.dim, Data: s.gatherBuf[base*cs.dim : end*cs.dim]}
		tensor.GatherRows(gather, s.emb, rows)
		*sims = tensor.Matrix{Rows: m, Cols: cs.resCount, Data: s.simsBuf[base*s.rcap : base*s.rcap+m*cs.resCount]}
		cs.resView = tensor.Matrix{Rows: cs.resCount, Cols: cs.dim, Data: cs.res.Data[:cs.resCount*cs.dim]}
		tensor.MatMulTransB(sims, gather, &cs.resView)
		s.pool.ForChunks(m, s.transformFn[ci])
		for cur, r := range rows {
			cs.seen++
			row := gather.Row(cur)
			cs.push(s.seen+r, row, sims.Row(cur), s.rawV[base+cur], s.top[base+cur])
			if cur >= cs.prefill {
				cs.offerReservoir(row)
			}
		}
		cs.applyPending()
	}
}

// transformRows runs transform over one chunk of class ci's batch rows.
// Rows never straddle chunks, so the result is identical at any worker
// count.
//
//nessa:hotpath
func (s *Selector) transformRows(ci, lo, hi int) {
	cs := s.sieves[ci]
	base, g, sims := s.start[ci], &s.gather[ci], &s.sims[ci]
	transform(sims.Data[lo*sims.Cols:hi*sims.Cols], g.Data[lo*g.Cols:hi*g.Cols], cs.resNorm[:sims.Cols], cs.c0,
		s.rawV[base+lo:base+hi], s.top[base+lo:base+hi])
}

// useAVX2 routes transform's whole 4-row groups through the row-lane
// kernel in transform_amd64.s: AVX2 in hardware and an OS that saves
// the YMM state. It is cpu.AVX2 in every build; tests clear it to force
// the portable loop.
var useAVX2 = cpu.AVX2

// transform converts len(rawV) rows of GEMM dot products against the
// reservoir (sims, len(resNorm) columns each) into clamped similarities
// sim = max(0, c0 − ‖g‖² − ‖r‖² + 2·g·r) in place, and records each
// row's singleton value Σₜ sim in rawV and its largest similarity in
// top; emb holds the rows' embeddings, ‖g‖² their Dot with themselves.
//
// With useAVX2, whole groups of four rows run the vector kernel over
// their whole 8-column blocks, and transformTail finishes their last
// < 8 columns; without it, and for the < 4 rows left over, transformTail
// covers whole rows. The kernel keeps one float64 lane per row and adds
// a row's similarities to it in ascending t, as transformTail does, so
// both paths give the same bits (DESIGN.md §4.10).
//
//nessa:hotpath
func transform(sims, emb, resNorm []float32, c0 float32, rawV []float64, top []float32) {
	rows, cols := len(rawV), len(resNorm)
	if rows == 0 {
		return
	}
	dim := len(emb) / rows
	r := 0
	if vec := cols &^ 7; useAVX2 && vec > 0 {
		var c [4]float32
		var v [4]float64
		var tp [4]float32
		for ; r+4 <= rows; r += 4 {
			for j := range c {
				g := emb[(r+j)*dim : (r+j+1)*dim]
				c[j] = c0 - tensor.Dot(g, g)
			}
			transform4AVX2(&sims[r*cols], cols, &resNorm[0], vec, &c, &v, &tp)
			for j := range c {
				row := sims[(r+j)*cols : (r+j+1)*cols]
				rawV[r+j], top[r+j] = transformTail(row[vec:], resNorm[vec:], c[j], v[j], tp[j])
			}
		}
	}
	for ; r < rows; r++ {
		g := emb[r*dim : (r+1)*dim]
		rawV[r], top[r] = transformTail(sims[r*cols:(r+1)*cols], resNorm, c0-tensor.Dot(g, g), 0, 0)
	}
}

// transformTail is transform's portable loop: it carries one row's sum
// v and maximum top over the columns of row, given the row's
// c0 − ‖g‖².
//
//nessa:hotpath
func transformTail(row, resNorm []float32, c0na float32, v float64, top float32) (float64, float32) {
	resNorm = resNorm[:len(row)]
	for t, dot := range row {
		sim := c0na - resNorm[t] + 2*dot
		if sim < 0 {
			sim = 0
		}
		if sim > top {
			top = sim
		}
		row[t] = sim
		v += float64(sim)
	}
	return v, top
}

// Finish closes the stream and returns the selection: for each class,
// lazy greedy over the union of every ladder rung's buffer and the
// backup set, evaluated against the class reservoir, topped up to the
// budget. Selected holds global stream positions in class-ascending
// order; Weights are reservoir-share cluster sizes summing to the
// class count, matching the batch CRAIG convention. The reported
// Objective is the reservoir estimate scaled to class size — compare
// subsets with selection.Objective, not estimates with exact values.
// Finish does not consume the state: it may be called repeatedly, and
// more batches may be pushed in between.
//
// The classes finish as pool tasks (finishPass), each into its own
// results slot; the slots are then concatenated and the objective
// summed in class order, so the result does not depend on the worker
// count.
func (s *Selector) Finish() (selection.Result, Stats, error) {
	st := Stats{
		Records:      s.seen,
		StateBytes:   s.MemoryBytes(),
		BudgetBytes:  s.cfg.MemBudget,
		PerClassSeen: make([]int, s.cfg.Classes),
		PerClassK:    s.budgets,
	}
	if s.seen == 0 {
		return selection.Result{}, st, fmt.Errorf("streaming: no records pushed")
	}
	s.results = grow(s.results, s.cfg.Classes)
	s.pool.For(s.cfg.Classes, 1, s.finishFn)
	picks := 0
	for ci, cs := range s.sieves {
		if cs == nil {
			continue
		}
		st.PerClassSeen[ci] = cs.seen
		st.ActiveLevels += len(cs.levels)
		st.RungVisits += cs.rungVisits
		st.RungPruned += cs.rungPruned
		st.RungScans += cs.rungScans
		st.RungAccepts += cs.rungAccepts
		if cs.rcap > st.Reservoir {
			st.Reservoir = cs.rcap
		}
		picks += len(s.results[ci].ids)
	}
	res := selection.Result{Selected: make([]int, 0, picks), Weights: make([]float32, 0, picks)}
	for ci, cs := range s.sieves {
		if cs == nil {
			continue
		}
		r := &s.results[ci]
		res.Selected = append(res.Selected, r.ids...)
		res.Weights = append(res.Weights, r.weights...)
		res.Objective += r.f
	}
	return res, st, nil
}

// finishPass finishes classes [lo, hi) into their results slots, on the
// calling worker's finish scratch.
func (s *Selector) finishPass(w, _, lo, hi int) {
	fs := finishArena.Get(w)
	for ci := lo; ci < hi; ci++ {
		if cs := s.sieves[ci]; cs != nil {
			cs.finish(fs, &s.results[ci])
		}
	}
}

// classResult is one class's share of a Finish: its picks in pick
// order, their weights, and its scaled objective estimate.
type classResult struct {
	ids     []int
	weights []float32
	f       float64
}

// finishScratch is one worker's finish storage. It lives in finishArena,
// keyed by the pool's worker IDs, so that every selector in the process
// finishes on the same few slots and a warm one allocates nothing but
// the selection it returns. It is device-DRAM staging, not on-chip
// state: MemoryBytes does not count it.
type finishScratch struct {
	pool     []poolRef
	dedup    map[int]bool
	cover    []float32
	ub       []float64
	chosen   []bool
	poolNorm []float32
	sel      []int
	emb      []float32 // pool × dim: the candidates, gathered for the GEMM
	sims     []float32 // pool × reservoir similarities, or one row on demand
	bestS    []float32 // per reservoir slot: the weight vote's best similarity
	bestJ    []int     // and the pick that holds it
}

var finishArena = parallel.NewWorkerLocal[finishScratch](nil)

// poolRef is one finish candidate: a stream position and its embedding.
type poolRef struct {
	id  int
	emb []float32
}

// finishBlockMax caps the pool × reservoir similarity block finish
// materializes, in float32 entries (4 MB). The e2e and bench shapes sit
// far below it (≤ 1,250 × 436); a larger pool, which only ladders filled
// under a wide custom plan produce, computes each similarity row when
// it is read instead. Both give the same bits. A variable so that tests
// can force the on-demand rows.
var finishBlockMax = 1 << 20

// finish runs the per-class post-pass into out: deduplicate the
// candidate pool (ladder buffers ∪ backup), lazy greedy against the
// reservoir, then reservoir-share weights. It is read-only on the
// streaming state, so repeated calls agree bit for bit.
//
// Every similarity the pass reads is sim(p, i) = max(0, c0 − ‖rᵢ‖² −
// ‖eₚ‖² + 2·eₚ·rᵢ) between candidate p and reservoir row i. The pass
// computes them once, as one pool × reservoir MatMulTransB whose
// elements each run tensor.Dot's chain (one float32 product then add
// per term, ascending k, from +0), then transforms them in place with
// simPairN's association; the rounds of lazy greedy, the cover
// updates and the weight vote read rows of that block.
func (cs *classSieve) finish(fs *finishScratch, out *classResult) {
	out.ids, out.weights, out.f = out.ids[:0], out.weights[:0], 0
	if cs.seen == 0 || cs.resCount == 0 || cs.kc == 0 {
		return
	}
	pool := fs.pool[:0]
	if fs.dedup == nil {
		fs.dedup = make(map[int]bool, cs.kc*(len(cs.levels)+1))
	}
	dedup := fs.dedup
	clear(dedup)
	add := func(id int, emb []float32) {
		if !dedup[id] {
			dedup[id] = true
			pool = append(pool, poolRef{id, emb})
		}
	}
	for _, lv := range cs.levels {
		for t := 0; t < lv.count; t++ {
			add(lv.ids[t], lv.emb[t*cs.dim:(t+1)*cs.dim])
		}
	}
	for t := 0; t < cs.bakLen; t++ {
		add(cs.bakIDs[t], cs.bakEmb[t*cs.dim:(t+1)*cs.dim])
	}
	fs.pool = pool
	k := min(cs.kc, len(pool))
	n, dim := cs.resCount, cs.dim
	res := cs.res.Data[:n*dim]
	fs.cover = grow(fs.cover, n)
	clear(fs.cover)
	fs.ub = grow(fs.ub, len(pool))
	fs.chosen = grow(fs.chosen, len(pool))
	clear(fs.chosen)
	fs.poolNorm = grow(fs.poolNorm, len(pool))
	cover, ub, chosen, poolNorm := fs.cover, fs.ub, fs.chosen, fs.poolNorm
	for p := range pool {
		ub[p] = math.Inf(1)
		poolNorm[p] = tensor.Dot(pool[p].emb, pool[p].emb)
	}
	block := len(pool)*n <= finishBlockMax
	if block {
		fs.emb = grow(fs.emb, len(pool)*dim)
		for p := range pool {
			copy(fs.emb[p*dim:(p+1)*dim], pool[p].emb)
		}
		fs.sims = grow(fs.sims, len(pool)*n)
		sims := tensor.Matrix{Rows: len(pool), Cols: n, Data: fs.sims}
		tensor.MatMulTransB(&sims,
			&tensor.Matrix{Rows: len(pool), Cols: dim, Data: fs.emb},
			&tensor.Matrix{Rows: n, Cols: dim, Data: res})
		for p := range pool {
			row := sims.Row(p)
			for i, dot := range row {
				row[i] = cs.clampSim(cs.resNorm[i], poolNorm[p], dot)
			}
		}
	} else {
		fs.sims = grow(fs.sims, n)
	}
	// simRow returns candidate p's similarities to the reservoir rows:
	// a row of the block, or, past finishBlockMax, computed into the one
	// row buffer, valid until the next call.
	simRow := func(p int) []float32 {
		if block {
			return fs.sims[p*n : (p+1)*n]
		}
		row := fs.sims[:n]
		for i := range row {
			row[i] = cs.simPairN(res[i*dim:(i+1)*dim], cs.resNorm[i], pool[p].emb, poolNorm[p])
		}
		return row
	}

	ids := out.ids
	sel := fs.sel[:0] // pool indices of the selection
	for round := 0; round < k; round++ {
		bestP, bestG := -1, -1.0
		for p := range pool {
			if chosen[p] || ub[p] <= bestG {
				continue
			}
			var g float64
			for i, sim := range simRow(p) {
				if d := sim - cover[i]; d > 0 {
					g += float64(d)
				}
			}
			ub[p] = g
			if g > bestG {
				bestG, bestP = g, p
			}
		}
		if bestP < 0 {
			break
		}
		chosen[bestP] = true
		ids = append(ids, pool[bestP].id)
		sel = append(sel, bestP)
		out.f += bestG
		for i, sim := range simRow(bestP) {
			if sim > cover[i] {
				cover[i] = sim
			}
		}
	}
	fs.sel = sel
	out.ids = ids
	// Reservoir-share weights: each slot votes for its best medoid (the
	// first pick to reach its largest similarity), each vote carries
	// seen/resCount stream records.
	fs.bestS = grow(fs.bestS, n)
	fs.bestJ = grow(fs.bestJ, n)
	bestS, bestJ := fs.bestS, fs.bestJ
	for i := range bestS {
		bestS[i], bestJ[i] = -1, 0
	}
	for j, p := range sel {
		for i, sim := range simRow(p) {
			if sim > bestS[i] {
				bestS[i], bestJ[i] = sim, j
			}
		}
	}
	out.weights = grow(out.weights, len(ids))
	clear(out.weights)
	scale := float32(cs.seen) / float32(cs.resCount)
	for _, j := range bestJ {
		out.weights[j] += scale
	}
	out.f *= float64(scale)
}
