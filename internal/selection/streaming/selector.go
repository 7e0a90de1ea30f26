package streaming

import (
	"fmt"
	"math"

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

	Reservoir   int   // per-class reservoir rows; 0 = derive from MemBudget
	SketchRows  int   // frequent-directions ℓ; 0 = derive from MemBudget
	SketchDim   int   // sketched vector length; 0 = Dim (set Dim·Features for ∇W sketches)
	SketchEvery int   // sketch every n-th record; 0 = 16, negative = disable
	MemBudget   int64 // on-chip state budget in bytes; 0 = DefaultMemoryBudget()

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
	if c.SketchEvery == 0 {
		c.SketchEvery = 16
	}
	if c.SketchDim == 0 {
		c.SketchDim = c.Dim
	}
	if c.MemBudget == 0 {
		c.MemBudget = DefaultMemoryBudget()
	}
	return c
}

// Stats reports what a Selector did over the stream.
type Stats struct {
	Records       int     `json:"records"`
	Reservoir     int     `json:"reservoir"`  // rows per class
	SketchRows    int     `json:"sketchRows"` // frequent-directions ℓ
	SketchShrinks int     `json:"sketchShrinks"`
	SketchCapture float64 `json:"sketchCapture"` // retained gradient energy fraction
	StateBytes    int64   `json:"stateBytes"`    // persistent selection state
	BudgetBytes   int64   `json:"budgetBytes"`   // the on-chip budget it must fit
	ActiveLevels  int     `json:"activeLevels"`  // ladder rungs alive at finish
	PerClassSeen  []int   `json:"perClassSeen"`
	PerClassK     []int   `json:"perClassK"`

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
// (reservoirs, threshold ladders, backup buffers, the gradient sketch)
// is preallocated against the on-chip budget at construction; Push
// performs no per-record allocation in steady state. Results are
// bit-identical for a fixed seed at any worker count: the batched
// similarity GEMM runs on the shared pool's fixed chunk grid, each
// class's sieve consumes that class's records in stream order and
// shares no state with another class's, and the sketch consumes its
// sampled records serially in stream order.
type Selector struct {
	cfg     Config
	budgets []int
	sieves  []*classSieve // nil where budgets[ci] == 0
	rcap    int           // reservoir rows per class
	sketch  *Sketch
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
	outer     []float32       // sketch-row scratch for ∇W = g·xᵀ sketches
	pool      *parallel.Pool
	// sievePass and each class's transformRows, bound once so that a
	// Push dispatches them without allocating.
	sieveFn     func(lo, hi int)
	transformFn []func(c, lo, hi int)
}

// NewSelector plans the selection state against the memory budget and
// preallocates all of it. It fails if even a minimal configuration
// (16-row reservoirs, 8 sketch directions) cannot fit.
func NewSelector(cfg Config) (*Selector, error) {
	cfg = cfg.withDefaults()
	if cfg.Classes < 1 || cfg.Dim < 1 || cfg.K < 1 {
		return nil, fmt.Errorf("streaming: need Classes ≥ 1, Dim ≥ 1, K ≥ 1; got %d/%d/%d",
			cfg.Classes, cfg.Dim, cfg.K)
	}
	if cfg.Eps > 3 {
		return nil, fmt.Errorf("streaming: Eps %g too coarse (max 3)", cfg.Eps)
	}
	counts := cfg.ClassCounts
	if counts == nil {
		counts = make([]int, cfg.Classes)
		for i := range counts {
			counts[i] = cfg.K + 1 // balanced and unconstraining
		}
	}
	if len(counts) != cfg.Classes {
		return nil, fmt.Errorf("streaming: ClassCounts has %d entries, want %d", len(counts), cfg.Classes)
	}
	total := 0
	for _, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("streaming: negative class count %d", n)
		}
		total += n
	}
	k := cfg.K
	if k > total {
		k = total
	}
	budgets := selection.SplitBudgetCounts(counts, k, total)

	rcap, ell, err := planState(&cfg, budgets)
	if err != nil {
		return nil, err
	}

	s := &Selector{
		cfg:     cfg,
		budgets: budgets,
		sieves:  make([]*classSieve, cfg.Classes),
		rcap:    rcap,
		start:   make([]int, cfg.Classes+1),
		gather:  make([]tensor.Matrix, cfg.Classes),
		sims:    make([]tensor.Matrix, cfg.Classes),
		pool:    parallel.Default(),
	}
	s.sieveFn = s.sievePass
	s.transformFn = make([]func(c, lo, hi int), cfg.Classes)
	for ci := range s.transformFn {
		ci := ci
		s.transformFn[ci] = func(_, lo, hi int) { s.transformRows(ci, lo, hi) }
	}
	for ci, kc := range budgets {
		if kc == 0 {
			continue
		}
		s.sieves[ci] = newClassSieve(ci, kc, cfg.Dim, rcap, maxLadderLevels(kc, cfg.Eps),
			cfg.Eps, float32(cfg.C0), selection.ClassStream(cfg.Seed, ci))
	}
	if cfg.SketchEvery > 0 {
		s.sketch, err = NewSketch(ell, cfg.SketchDim)
		if err != nil {
			return nil, err
		}
		if cfg.SketchDim != cfg.Dim {
			s.outer = make([]float32, cfg.SketchDim)
		}
	}
	if got := s.MemoryBytes(); got > cfg.MemBudget {
		return nil, fmt.Errorf("streaming: planned state %d bytes exceeds on-chip budget %d", got, cfg.MemBudget)
	}
	return s, nil
}

// planState picks the reservoir size and sketch width that fit the
// byte budget, mirroring the memoryBytes accounting of the structures
// it plans for. Explicit Config values are honored (and validated).
func planState(cfg *Config, budgets []int) (rcap, ell int, err error) {
	// Sketch share first: it is class-independent.
	sketchBytes := func(l int) int64 {
		if cfg.SketchEvery < 0 {
			return 0
		}
		n := int64(2 * l)
		d := int64(cfg.SketchDim)
		return n*d*4*2 /*buf+tmp*/ + n*n*4 /*g32*/ + n*n*8*2 /*gram+vecs*/ + n*8*3 /*vals+ord+coef*/
	}
	ell = cfg.SketchRows
	if ell == 0 {
		ell = 64
		for ell > 8 && sketchBytes(ell) > cfg.MemBudget/4 {
			ell /= 2
		}
	}
	// Per-class costs: fixed (levels, backup) and per-reservoir-row.
	var fixed, perR int64
	for _, kc := range budgets {
		if kc == 0 {
			continue
		}
		ml := int64(maxLadderLevels(kc, cfg.Eps))
		kc64, d := int64(kc), int64(cfg.Dim)
		fixed += ml*kc64*(8+4*d) + kc64*(8+8+4*d)                                            // level ids+embs, backup
		perR += 4*d /*res*/ + 4*d /*pend*/ + 4 /*norm*/ + 8 /*pendSlot*/ + 1 /*mark*/ + 4*ml /*bests*/
	}
	if perR == 0 {
		return 0, 0, fmt.Errorf("streaming: every class budget is zero")
	}
	avail := cfg.MemBudget*95/100 - fixed - sketchBytes(ell)
	rcap = cfg.Reservoir
	if rcap == 0 {
		rcap = int(avail / perR)
		if rcap > 512 {
			rcap = 512
		}
	}
	if rcap < 16 {
		return 0, 0, fmt.Errorf("streaming: on-chip budget %d bytes cannot hold the minimal selection state (fixed %d + sketch %d + 16·%d per-row bytes)",
			cfg.MemBudget, fixed, sketchBytes(ell), perR)
	}
	return rcap, ell, nil
}

// MemoryBytes reports the persistent selection-state bytes: every
// buffer that must survive across the whole pass (reservoirs, ladder
// buffers, backup sets, the sketch). Batch staging scratch is device
// DRAM and not counted.
func (s *Selector) MemoryBytes() int64 {
	var b int64
	for _, cs := range s.sieves {
		if cs != nil {
			b += cs.memoryBytes()
		}
	}
	if s.sketch != nil {
		b += s.sketch.MemoryBytes()
		b += int64(cap(s.outer)) * 4
	}
	return b
}

// Push consumes one batch of the stream: emb holds the gradient
// embedding of each record (n × Dim, in stream order), labels the
// class of each. x, when the selector sketches ∇W = g·xᵀ (SketchDim =
// Dim·Features), must hold the matching feature rows; otherwise it may
// be nil. Batches may vary in size; records are identified by their
// global stream position.
func (s *Selector) Push(emb, x *tensor.Matrix, labels []int) error {
	n := emb.Rows
	if len(labels) != n {
		return fmt.Errorf("streaming: %d labels for %d rows", len(labels), n)
	}
	if emb.Cols != s.cfg.Dim {
		return fmt.Errorf("streaming: embedding dim %d, want %d", emb.Cols, s.cfg.Dim)
	}
	if s.sketch != nil && s.outer != nil {
		if x == nil || x.Rows != n {
			return fmt.Errorf("streaming: ∇W sketch needs feature rows for every record")
		}
		if s.cfg.Dim*x.Cols != s.cfg.SketchDim {
			return fmt.Errorf("streaming: SketchDim %d != Dim %d × Features %d",
				s.cfg.SketchDim, s.cfg.Dim, x.Cols)
		}
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
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.gatherBuf = make([]float32, n*s.cfg.Dim)
		s.simsBuf = make([]float32, n*s.rcap)
		s.rawV = make([]float64, n)
		s.top = make([]float32, n)
	}
	order := s.order[:n]
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

	// The sketch is one state shared by every class, so it consumes its
	// sampled records serially, in global stream order.
	if s.sketch != nil {
		every := s.cfg.SketchEvery
		for r := (every - s.seen%every) % every; r < n; r += every {
			if s.sieves[labels[r]] == nil {
				continue
			}
			if s.outer != nil {
				outerProduct(s.outer, emb.Row(r), x.Row(r))
				s.sketch.Update(s.outer)
			} else {
				s.sketch.Update(emb.Row(r))
			}
		}
	}
	s.seen += n
	return nil
}

// sievePass runs classes [lo, hi) of the current batch. Per class:
// reservoir warm-up, the batched similarity GEMM against the frozen
// reservoir, the per-row transform that turns dot products into
// clamped similarities and singleton values, the class's rows through
// its sieve and reservoir policy in stream order, and last the staged
// reservoir replacements.
func (s *Selector) sievePass(lo, hi int) {
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
		resView := tensor.Matrix{Rows: cs.resCount, Cols: cs.dim, Data: cs.res.Data[:cs.resCount*cs.dim]}
		tensor.MatMulTransB(sims, gather, &resView)
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

// outerProduct writes the flattened last-layer weight gradient
// ∇W = g·xᵀ into dst (len(g)·len(x) entries, row-major).
//
//nessa:hotpath
func outerProduct(dst, g, x []float32) {
	for i, gi := range g {
		row := dst[i*len(x) : (i+1)*len(x)]
		for j, xj := range x {
			row[j] = gi * xj
		}
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
	if s.sketch != nil {
		st.SketchRows = s.sketch.Ell()
		st.SketchShrinks = s.sketch.Shrinks()
		st.SketchCapture = s.sketch.CaptureFraction()
	}
	return res, st, nil
}

// Sketch exposes the gradient sketch (nil when disabled) for
// diagnostics and the quality-vs-memory ablation.
func (s *Selector) Sketch() *Sketch { return s.sketch }

// finish runs the per-class post-pass: deduplicate the candidate pool
// (ladder buffers ∪ backup), lazy greedy against the reservoir, then
// reservoir-share weights. Purely serial and read-only on the
// streaming state, so repeated calls agree bit for bit.
func (cs *classSieve) finish() (ids []int, weights []float32, fEst float64) {
	if cs.seen == 0 || cs.resCount == 0 || cs.kc == 0 {
		return nil, nil, 0
	}
	type ref struct {
		id  int
		emb []float32
	}
	var pool []ref
	dedup := make(map[int]bool, cs.kc*(len(cs.levels)+1))
	add := func(id int, emb []float32) {
		if !dedup[id] {
			dedup[id] = true
			pool = append(pool, ref{id, emb})
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
	k := cs.kc
	if k > len(pool) {
		k = len(pool)
	}
	cover := make([]float32, cs.resCount)
	ub := make([]float64, len(pool))
	chosen := make([]bool, len(pool))
	poolNorm := make([]float32, len(pool))
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
	sel := make([]int, 0, k) // pool indices of the selection
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
