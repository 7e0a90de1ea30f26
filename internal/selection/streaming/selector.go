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
	// internal/bench/e2e sets it; ROADMAP item 5b deletes it.
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
}

// NewSelector plans the selection state against the memory budget and
// preallocates it. It fails, before allocating more than the per-class
// budget split, if the plan cannot fit: every class must be able to hold
// the smallest sieve (one pick, 16 reservoir rows), and the classes with
// a budget must hold theirs with at least 16 reservoir rows each.
func NewSelector(cfg Config) (*Selector, error) {
	s := &Selector{pool: parallel.Default()}
	s.sieveFn = s.sievePass
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
	if floor := fixed1 + minReservoir*perRow1; float64(cfg.Classes)*floor > float64(cfg.MemBudget) {
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
	return ml*k*(8+4*d) + k*(16+4*d), 8*d + 13 + 4*ml
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
	return rcap, fixed + float64(rcap)*perRow, nil
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
// internal/bench/e2e passes it; ROADMAP item 5b deletes it.
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

// transformRows converts one chunk of GEMM dot products into clamped
// similarities sim = max(0, c0 − ‖g‖² − ‖r‖² + 2·g·r) in place, and
// records each row's singleton value and largest similarity. Rows
// never straddle chunks, so the result is identical at any worker
// count.
//
//nessa:hotpath
func (s *Selector) transformRows(ci, lo, hi int) {
	cs := s.sieves[ci]
	c0 := cs.c0
	base := s.start[ci]
	for i := lo; i < hi; i++ {
		g := s.gather[ci].Row(i)
		na := tensor.Dot(g, g)
		row := s.sims[ci].Row(i)
		var v float64
		var top float32
		for t, dot := range row {
			sim := c0 - na - cs.resNorm[t] + 2*dot
			if sim < 0 {
				sim = 0
			}
			if sim > top {
				top = sim
			}
			row[t] = sim
			v += float64(sim)
		}
		s.rawV[base+i] = v
		s.top[base+i] = top
	}
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
	var res selection.Result
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
		ids, weights, f := cs.finish()
		res.Selected = append(res.Selected, ids...)
		res.Weights = append(res.Weights, weights...)
		res.Objective += f
	}
	return res, st, nil
}

// finish runs the per-class post-pass: deduplicate the candidate pool
// (ladder buffers ∪ backup), lazy greedy against the reservoir, then
// reservoir-share weights. Purely serial and read-only on the
// streaming state, so repeated calls agree bit for bit.
func (cs *classSieve) finish() (ids []int, weights []float32, fEst float64) {
	if cs.seen == 0 || cs.resCount == 0 || cs.kc == 0 {
		return nil, nil, 0
	}
	fs := &cs.fin
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
	k := cs.kc
	if k > len(pool) {
		k = len(pool)
	}
	fs.cover = grow(fs.cover, cs.resCount)
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
	gain := func(p int) float64 {
		var g float64
		e, ne := pool[p].emb, poolNorm[p]
		for i := 0; i < cs.resCount; i++ {
			sim := cs.simPairN(cs.res.Data[i*cs.dim:(i+1)*cs.dim], cs.resNorm[i], e, ne)
			if d := sim - cover[i]; d > 0 {
				g += float64(d)
			}
		}
		return g
	}
	ids = make([]int, 0, k)
	sel := fs.sel[:0] // pool indices of the selection
	for round := 0; round < k; round++ {
		bestP, bestG := -1, -1.0
		for p := range pool {
			if chosen[p] || ub[p] <= bestG {
				continue
			}
			g := gain(p)
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
		fEst += bestG
		e, ne := pool[bestP].emb, poolNorm[bestP]
		for i := 0; i < cs.resCount; i++ {
			if sim := cs.simPairN(cs.res.Data[i*cs.dim:(i+1)*cs.dim], cs.resNorm[i], e, ne); sim > cover[i] {
				cover[i] = sim
			}
		}
	}
	fs.sel = sel
	// Reservoir-share weights: each slot votes for its best medoid,
	// each vote carries seen/resCount stream records.
	weights = make([]float32, len(ids))
	scale := float32(cs.seen) / float32(cs.resCount)
	for i := 0; i < cs.resCount; i++ {
		bestJ, bestS := 0, float32(-1)
		for j, p := range sel {
			if sim := cs.simPairN(cs.res.Data[i*cs.dim:(i+1)*cs.dim], cs.resNorm[i], pool[p].emb, poolNorm[p]); sim > bestS {
				bestS, bestJ = sim, j
			}
		}
		weights[bestJ] += scale
	}
	fEst *= float64(scale)
	return ids, weights, fEst
}

// simPairN is simPair with the second operand's norm precomputed.
func (cs *classSieve) simPairN(a []float32, na float32, b []float32, nb float32) float32 {
	dot := tensor.Dot(a, b)
	s := cs.c0 - na - nb + 2*dot
	if s < 0 {
		return 0
	}
	return s
}
