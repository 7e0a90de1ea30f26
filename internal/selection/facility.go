// Package selection implements the data-selection algorithms of the
// paper and its baselines:
//
//   - Facility-location submodular maximization (paper Eq. 5) with
//     three maximizers: naive greedy (reference), lazy greedy
//     (Minoux 1978), and stochastic greedy (Mirzasoleiman et al. 2015,
//     "lazier than lazy greedy" — the O(N) variant §3.1 cites).
//   - CRAIG per-class coreset selection over last-layer gradient
//     embeddings with medoid cluster weights (Mirzasoleiman et al.
//     2020 — the formulation NeSSA adapts to the SmartSSD).
//   - k-Centers greedy farthest-point (Sener & Savarese 2017), the
//     second baseline of Table 3 / Fig 4.
//   - Random subsets (the sanity baseline).
//   - Chunked/partitioned selection (paper §3.2.3).
//
// All selectors take a matrix of per-sample embeddings plus a slice of
// candidate row indices, and return selected row indices with medoid
// weights (cluster sizes) for weighted SGD.
//
// Every O(n·d) candidate scan (gain, absorb, medoid assignment) runs
// on the shared worker pool of internal/parallel. The pool's fixed
// chunk grid keeps objectives bit-identical across worker counts, so
// selections are reproducible on any machine; parallel.SetDefaultWorkers(1)
// forces fully serial execution. An instance of one chunk (a partition
// chunk, a small class) scans its precomputed similarity tile instead:
// one GEMM of the packed rows plus a vector epilogue builds the tile,
// and stochastic greedy scores its drawn candidates four rows per AVX2
// pass, one float64 lane each (gain_amd64.s). The vector kernels give
// the portable loops' bits, so the tiled path, the direct path and
// every build select the same subsets (DESIGN.md §4.10, the row-lane
// rule).
package selection

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"nessa/internal/cpu"
	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// Result is the output of a selector: the chosen sample indices (into
// the caller's global index space), each medoid's weight (the number of
// candidates it represents, so Σ Weights = #candidates), and the final
// facility-location objective value where applicable.
type Result struct {
	Selected  []int
	Weights   []float32
	Objective float64
}

// facility prepares the shared state of a facility-location instance:
// candidate rows, per-candidate squared norms (cached once so every
// later similarity costs one Dot instead of a SqDist), and the constant
// c0 ≥ max pairwise squared distance (paper Eq. 5). We use the bound
// c0 = 4·max‖g‖², computable in O(n), since
// ‖gi−gj‖² ≤ 2(‖gi‖²+‖gj‖²) ≤ 4·max‖g‖².
type facility struct {
	emb   *tensor.Matrix
	cand  []int
	norms []float32 // norms[i] = ‖emb.Row(cand[i])‖²
	c0    float32
	pool  *parallel.Pool

	// tile, when non-nil, holds every pairwise similarity of the
	// instance row-major: tile[a*n+b] = sim(a, b), n = len(cand).
	tile []float32
}

// Scratch is the reusable storage of facility-location selection: one
// instance's temporaries (norms, similarity tile, best, chosen,
// remaining, the picks and their assignment), the partition shuffle,
// and the result arrays. A Result returned through a Scratch aliases it
// and stays valid until the scratch's next selection of the same kind,
// so a caller that keeps one Scratch per concurrent selection reuses
// every buffer once the first pass has sized it. The zero value is
// ready to use; a Scratch serves one goroutine at a time.
type Scratch struct {
	fac       facility
	norms     []float32
	tile      []float32 // the n×n tile, then the n packed candidate rows
	tileM     tensor.Matrix
	packM     tensor.Matrix // the tile GEMM's operands, over tile
	gains     []float64     // a stochastic-greedy round's drawn gains
	best      []float32
	chosen    []bool
	remaining []int
	picks     []int // candidate positions the maximizer selected
	assign    []int32
	leaf      Result // a maximizer's result
	shuffled  []int  // Partitioned's random split of the candidates
	merged    Result // Partitioned's result
}

// grow returns s with length n, reusing its storage when it has the
// capacity. The contents are whatever the storage held.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// zeroed is grow with every element cleared.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// scratches recycles the Scratch of the package's allocating entry
// points, as tensor recycles GEMM panels: a selection that is not handed
// a Scratch draws one here and returns it, so every call after the
// first reuses the buffers an earlier one released (a partitioned
// selection builds one tile per chunk).
var scratches parallel.FreeList[Scratch]

func getScratch() *Scratch {
	if sc := scratches.Get(); sc != nil {
		return sc
	}
	return new(Scratch)
}

// withScratch runs sel on a free-list Scratch and returns a copy of its
// result that owns its arrays, for the entry points whose callers keep
// the Result.
func withScratch(sel func(sc *Scratch) (Result, error)) (Result, error) {
	sc := getScratch()
	defer scratches.Put(sc)
	res, err := sel(sc)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Selected:  append([]int(nil), res.Selected...),
		Weights:   append([]float32(nil), res.Weights...),
		Objective: res.Objective,
	}, nil
}

// directOnly forces every facility onto the direct path, which computes
// each similarity with tensor.Dot where it is used. Tests set it to
// hold the tiled path to that reference.
var directOnly bool

// newFacility builds, in sc, the instance the maximizers run on. When
// the candidates fit one chunk of the pool's fixed grid (n ≤ 512) it
// also builds the similarity tile: the n×n similarities (at most 1 MiB)
// are the chunk's whole selection working set, computed once here
// instead of once per gain, absorb and assignment. Each tile entry is
// the float32 sim computes, so the tiled and direct paths select the
// same subsets with bit-identical weights and objectives. The GEMM's
// operand headers live in sc, so a warm build allocates nothing.
func newFacility(sc *Scratch, emb *tensor.Matrix, cand []int) *facility {
	f := newDirectFacility(sc, emb, cand)
	n, dim := len(cand), emb.Cols
	if parallel.Chunks(n) != 1 || directOnly {
		return f
	}
	sc.tile = grow(sc.tile, n*n+n*dim)
	f.tile = sc.tile[:n*n]
	pack := sc.tile[n*n:]
	for i, gi := range cand {
		copy(pack[i*dim:(i+1)*dim], emb.Row(gi))
	}
	sc.tileM = tensor.Matrix{Rows: n, Cols: n, Data: f.tile}
	sc.packM = tensor.Matrix{Rows: n, Cols: dim, Data: pack}
	buildTile(&sc.tileM, &sc.packM, f.norms, f.c0)
	return f
}

// newDirectFacility builds an instance without a tile in sc. Objective
// uses it: it touches n·|S| similarities, fewer than a tile holds.
func newDirectFacility(sc *Scratch, emb *tensor.Matrix, cand []int) *facility {
	sc.norms = grow(sc.norms, len(cand))
	sc.fac = facility{
		emb:   emb,
		cand:  cand,
		norms: sc.norms,
		pool:  parallel.Default(),
	}
	f := &sc.fac
	var maxSq float32
	for i, gi := range cand {
		row := emb.Row(gi)
		sq := tensor.Dot(row, row)
		f.norms[i] = sq
		if sq > maxSq {
			maxSq = sq
		}
	}
	f.c0 = 4 * maxSq
	if f.c0 == 0 {
		f.c0 = 1 // degenerate all-zero embeddings: uniform similarity
	}
	return f
}

// sim returns the facility-location similarity between candidate
// positions a and b (indices into cand). With cached norms the squared
// distance expands to ‖ga‖² + ‖gb‖² − 2·ga·gb, so only the dot product
// touches the embedding dimension.
func (f *facility) sim(a, b int) float32 {
	return simOf(f.c0, f.norms[a], f.norms[b], tensor.Dot(f.emb.Row(f.cand[a]), f.emb.Row(f.cand[b])))
}

// simOf is the similarity c0 − ‖ga − gb‖² from the two cached squared
// norms and the dot product d = ga·gb, clamped at 0 against float
// round-off below the bound. Both paths compute every similarity
// through it, so they round identically. The conversion rounds 2·d
// before the subtraction, which a target with fused multiply-adds would
// otherwise fold into one.
//
//nessa:inline
func simOf(c0, na, nb, d float32) float32 {
	s := c0 - (na + nb - float32(2*d))
	if s < 0 {
		s = 0
	}
	return s
}

// useAVX2 routes the tile's gain scan and similarity epilogue through
// the kernels in gain_amd64.s: AVX2 in hardware and an OS that saves the
// YMM state. It is cpu.AVX2 in every build; tests clear it to force the
// portable loops.
var useAVX2 = cpu.AVX2

// buildTile fills tile (n×n) with the similarity of every pair of the
// n rows of pack: one MatMulTransB(tile, pack, pack), then simOf over
// the block in place. Each GEMM element is one float32 chain from +0
// over ascending k, each product rounded before its add (DESIGN.md
// §4.9 rule 1) — tensor.Dot's loop, and the same chain for (a, b) and
// (b, a), since the products commute — so every entry is bit-identical
// to sim.
//
//nessa:hotpath
func buildTile(tile, pack *tensor.Matrix, norms []float32, c0 float32) {
	tensor.MatMulTransB(tile, pack, pack)
	simTile(tile.Data, norms, c0)
}

// simTile turns the n×n dot products in tile (n = len(norms)) into
// similarities in place: entry (a, b) becomes simOf(c0, norms[a],
// norms[b], dot). With useAVX2 each row's whole 8-column blocks run
// simRowAVX2, which keeps simOf's association and clamp, and simOf
// finishes the last < 8 columns.
//
//nessa:hotpath
func simTile(tile, norms []float32, c0 float32) {
	n := len(norms)
	vec := 0
	if useAVX2 {
		vec = n &^ 7
	}
	for a, na := range norms {
		row := tile[a*n : (a+1)*n]
		if vec > 0 {
			simRowAVX2(&row[0], &norms[0], vec, na, c0)
		}
		tail := norms[vec:]
		for b, d := range row[vec:][:len(tail)] {
			row[vec+b] = simOf(c0, na, tail[b], d)
		}
	}
}

// tileRow returns candidate j's similarities to every candidate.
func (f *facility) tileRow(j int) []float32 {
	n := len(f.cand)
	return f.tile[j*n : (j+1)*n]
}

// gain computes the marginal objective gain of adding candidate j given
// the current per-candidate best similarities. The candidate scan runs
// chunked on the pool; partial sums reduce in fixed chunk order, so the
// gain is bit-identical for any worker count. A tiled instance is one
// chunk, which the pool sums serially in ascending i: tileGain is that
// sum over the tile row.
func (f *facility) gain(j int, best []float32) float64 {
	if f.tile != nil {
		return tileGain(f.tileRow(j), best, 0)
	}
	gj := f.emb.Row(f.cand[j])
	nj := f.norms[j]
	return f.pool.SumChunks(len(f.cand), func(lo, hi int) float64 {
		var g float64
		for i := lo; i < hi; i++ {
			s := simOf(f.c0, f.norms[i], nj, tensor.Dot(f.emb.Row(f.cand[i]), gj))
			if b := best[i]; s > b {
				g += float64(s - b)
			}
		}
		return g
	})
}

// gains sets out[t] to the gain of candidate drawn[t], bit for bit
// what gain returns. On a tiled instance with useAVX2 the drawn rows go
// through gain4AVX2 four at a time — a last group of fewer is padded by
// repeating a live row, whose extra lanes are dropped — over the rows'
// whole 8-column blocks, and tileGain carries each lane's sum over the
// last < 8 columns. Each lane adds its row's terms in ascending i, as
// tileGain does.
//
//nessa:hotpath
func (f *facility) gains(drawn []int, best []float32, out []float64) {
	out = out[:len(drawn)]
	n := len(f.cand)
	vec := n &^ 7
	if f.tile == nil || !useAVX2 || vec == 0 {
		for t, j := range drawn {
			out[t] = f.gain(j, best)
		}
		return
	}
	best = best[:n]
	var rows [4][]float32
	var g [4]float64
	for t := 0; t < len(drawn); t += 4 {
		live := min(4, len(drawn)-t)
		for c := range rows {
			rows[c] = f.tileRow(drawn[t+min(c, live-1)])
		}
		gain4AVX2(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &best[0], vec, &g)
		for c := 0; c < live; c++ {
			out[t+c] = tileGain(rows[c][vec:], best[vec:], g[c])
		}
	}
}

// tileGain is gain's candidate scan over one tile row, added to g in
// ascending i.
//
//nessa:hotpath
func tileGain(row, best []float32, g float64) float64 {
	best = best[:len(row)]
	for i, s := range row {
		if b := best[i]; s > b {
			g += float64(s - b)
		}
	}
	return g
}

// absorb updates best after selecting candidate j. Chunks write
// disjoint ranges of best, and each slot's value depends only on (i, j),
// so the update is deterministic under any scheduling.
func (f *facility) absorb(j int, best []float32) {
	if f.tile != nil {
		tileAbsorb(f.tileRow(j), best)
		return
	}
	gj := f.emb.Row(f.cand[j])
	nj := f.norms[j]
	f.pool.ForChunks(len(f.cand), func(_, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := simOf(f.c0, f.norms[i], nj, tensor.Dot(f.emb.Row(f.cand[i]), gj))
			if s > best[i] {
				best[i] = s
			}
		}
	})
}

// tileAbsorb is absorb's update over one tile row.
//
//nessa:hotpath
func tileAbsorb(row, best []float32) {
	best = best[:len(row)]
	for i, s := range row {
		if s > best[i] {
			best[i] = s
		}
	}
}

// nearest returns the position in selected of the medoid most similar
// to the candidate whose tile row is row; ties keep the earlier pick.
//
//nessa:hotpath
func nearest(row []float32, selected []int) int {
	bestSi, bestS := 0, float32(-1)
	for si, j := range selected {
		if s := row[j]; s > bestS {
			bestS, bestSi = s, si
		}
	}
	return bestSi
}

// finish assigns every candidate to its most similar medoid and
// produces the Result with cluster-size weights, in sc's result arrays.
// Assignment is parallel on the direct path; the weight tally stays
// serial (float32 counting is exact, but the tally is O(n) and not worth
// a reduction).
func (f *facility) finish(sc *Scratch, selected []int, objective float64) Result {
	sc.leaf.Selected = grow(sc.leaf.Selected, len(selected))
	sc.leaf.Weights = zeroed(sc.leaf.Weights, len(selected))
	res := Result{Selected: sc.leaf.Selected, Weights: sc.leaf.Weights, Objective: objective}
	for si, j := range selected {
		res.Selected[si] = f.cand[j]
	}
	if len(selected) == 0 {
		return res
	}
	sc.assign = grow(sc.assign, len(f.cand))
	assign := sc.assign
	if f.tile != nil {
		for i := range assign {
			assign[i] = int32(nearest(f.tileRow(i), selected))
		}
	} else {
		f.pool.ForChunks(len(f.cand), func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				bestSi, bestS := 0, float32(-1)
				for si, j := range selected {
					if s := f.sim(i, j); s > bestS {
						bestS, bestSi = s, si
					}
				}
				assign[i] = int32(bestSi)
			}
		})
	}
	for _, a := range assign {
		res.Weights[a]++
	}
	return res
}

func validate(emb *tensor.Matrix, cand []int, k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("selection: k must be positive, got %d", k)
	}
	if len(cand) == 0 {
		return 0, fmt.Errorf("selection: no candidates")
	}
	for _, c := range cand {
		if c < 0 || c >= emb.Rows {
			return 0, fmt.Errorf("selection: candidate %d out of embedding range [0,%d)", c, emb.Rows)
		}
	}
	if k > len(cand) {
		k = len(cand)
	}
	return k, nil
}

// NaiveGreedy maximizes the facility-location objective with the plain
// O(n²·k) greedy. It is the reference implementation the faster
// maximizers are tested against.
func NaiveGreedy(emb *tensor.Matrix, cand []int, k int) (Result, error) {
	k, err := validate(emb, cand, k)
	if err != nil {
		return Result{}, err
	}
	return withScratch(func(sc *Scratch) (Result, error) {
		return naiveGreedy(sc, emb, cand, k), nil
	})
}

func naiveGreedy(sc *Scratch, emb *tensor.Matrix, cand []int, k int) Result {
	f := newFacility(sc, emb, cand)
	sc.best = zeroed(sc.best, len(cand))
	sc.chosen = zeroed(sc.chosen, len(cand))
	best, chosen := sc.best, sc.chosen
	selected := sc.picks[:0]
	var objective float64
	for len(selected) < k {
		bestJ, bestG := -1, -1.0
		for j := range cand {
			if chosen[j] {
				continue
			}
			if g := f.gain(j, best); g > bestG {
				bestG, bestJ = g, j
			}
		}
		if bestJ < 0 {
			break
		}
		chosen[bestJ] = true
		selected = append(selected, bestJ)
		objective += bestG
		f.absorb(bestJ, best)
	}
	sc.picks = selected
	return f.finish(sc, selected, objective)
}

// gainItem is one lazy-greedy heap entry: a candidate with a possibly
// stale marginal-gain upper bound.
type gainItem struct {
	j    int     // candidate position
	g    float64 // gain computed at round tick
	tick int
}

// gainHeap is a max-heap on g that breaks equal gains toward the lower
// position, the candidate NaiveGreedy's ascending strict-> scan keeps.
// A current top then beats every stale bound in the same order, so the
// two maximizers pick the same candidate every round.
type gainHeap []gainItem

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(a, b int) bool {
	return h[a].g > h[b].g || h[a].g == h[b].g && h[a].j < h[b].j
}
func (h gainHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() any     { old := *h; n := len(old) - 1; it := old[n]; *h = old[:n]; return it }

// LazyGreedy maximizes the facility-location objective with Minoux's
// accelerated greedy: marginal gains only shrink as the set grows
// (submodularity), so a stale upper bound that is still the largest
// after refresh must be the true maximum.
func LazyGreedy(emb *tensor.Matrix, cand []int, k int) (Result, error) {
	k, err := validate(emb, cand, k)
	if err != nil {
		return Result{}, err
	}
	return withScratch(func(sc *Scratch) (Result, error) {
		return lazyGreedy(sc, emb, cand, k), nil
	})
}

func lazyGreedy(sc *Scratch, emb *tensor.Matrix, cand []int, k int) Result {
	f := newFacility(sc, emb, cand)
	sc.best = zeroed(sc.best, len(cand))
	best := sc.best

	h := make(gainHeap, 0, len(cand))
	for j := range cand {
		h = append(h, gainItem{j: j, g: f.gain(j, best), tick: 0})
	}
	heap.Init(&h)

	var selected []int
	var objective float64
	round := 0
	for len(selected) < k && h.Len() > 0 {
		// Refresh the top until its gain is current for this round.
		// Submodularity guarantees refreshed gains never grow, so a
		// current top is the true argmax.
		for h[0].tick != round {
			h[0].g = f.gain(h[0].j, best)
			h[0].tick = round
			heap.Fix(&h, 0)
		}
		top := heap.Pop(&h).(gainItem)
		selected = append(selected, top.j)
		objective += top.g
		f.absorb(top.j, best)
		round++
	}
	return f.finish(sc, selected, objective)
}

// StochasticGreedy maximizes the facility-location objective with the
// lazier-than-lazy-greedy algorithm: each round evaluates a random
// sample of ⌈n/k·ln(1/ε)⌉ remaining candidates and takes the best,
// achieving a (1−1/e−ε) guarantee in O(n·ln(1/ε)) gain evaluations.
// This is the linear-time variant the paper runs on the FPGA (§3.1).
//
// The round sample is drawn WITHOUT replacement (a partial
// Fisher–Yates over the remaining candidates): duplicate draws would
// waste gain evaluations and under-sample the ⌈n/k·ln(1/ε)⌉ distinct
// candidates the guarantee assumes.
func StochasticGreedy(emb *tensor.Matrix, cand []int, k int, eps float64, rng *tensor.RNG) (Result, error) {
	return withScratch(func(sc *Scratch) (Result, error) {
		return sc.stochasticGreedy(emb, cand, k, eps, rng)
	})
}

// StochasticMaximizer is the package's StochasticMaximizer on sc: the
// selections it runs keep their temporaries and result in sc.
func (sc *Scratch) StochasticMaximizer(eps float64, rng *tensor.RNG) Maximizer {
	return func(emb *tensor.Matrix, cand []int, k int) (Result, error) {
		return sc.stochasticGreedy(emb, cand, k, eps, rng)
	}
}

func (sc *Scratch) stochasticGreedy(emb *tensor.Matrix, cand []int, k int, eps float64, rng *tensor.RNG) (Result, error) {
	k, err := validate(emb, cand, k)
	if err != nil {
		return Result{}, err
	}
	if !(0 < eps && eps < 1) {
		eps = 0.1
	}
	if rng == nil {
		// A fixed stream keeps a nil-RNG call deterministic; replaying callers pass a seeded one.
		rng = tensor.NewRNG(1)
	}
	f := newFacility(sc, emb, cand)
	n := len(cand)
	sc.best = zeroed(sc.best, n)
	sc.chosen = zeroed(sc.chosen, n)
	best, chosen := sc.best, sc.chosen

	sample := int(float64(n) / float64(k) * math.Log(1/eps))
	if sample < 1 {
		sample = 1
	}

	selected := sc.picks[:0]
	var objective float64
	sc.remaining = grow(sc.remaining, n)
	remaining := sc.remaining
	for i := range remaining {
		remaining[i] = i
	}
	sc.gains = grow(sc.gains, min(sample, n))
	for len(selected) < k && len(remaining) > 0 {
		draws := sample
		if draws > len(remaining) {
			draws = len(remaining)
		}
		// Partial Fisher–Yates: after t swaps, remaining[:t+1] holds
		// t+1 distinct uniform draws from the remaining pool, in draw
		// order. Gains never feed the RNG, so scoring the draws as one
		// batch afterwards leaves every draw where it was.
		for t := 0; t < draws; t++ {
			swap := t + rng.Intn(len(remaining)-t)
			remaining[t], remaining[swap] = remaining[swap], remaining[t]
		}
		drawn := remaining[:draws]
		gains := sc.gains[:draws]
		f.gains(drawn, best, gains)
		bestJ, bestG := -1, -1.0
		for t, g := range gains {
			if g > bestG {
				bestG, bestJ = g, drawn[t]
			}
		}
		if bestJ < 0 {
			break
		}
		chosen[bestJ] = true
		selected = append(selected, bestJ)
		objective += bestG
		f.absorb(bestJ, best)
		// Compact the remaining list lazily.
		w := remaining[:0]
		for _, j := range remaining {
			if !chosen[j] {
				w = append(w, j)
			}
		}
		remaining = w
	}
	sc.picks = selected
	return f.finish(sc, selected, objective), nil
}

// Objective evaluates the facility-location objective F(S) for an
// explicit selected set (global indices) over the candidates. Used by
// tests to verify maximizer quality.
func Objective(emb *tensor.Matrix, cand, selected []int) float64 {
	sc := getScratch()
	defer scratches.Put(sc)
	f := newDirectFacility(sc, emb, cand)
	pos := make(map[int]bool, len(selected))
	for _, s := range selected {
		pos[s] = true
	}
	var localSel []int
	for j, gi := range cand {
		if pos[gi] {
			localSel = append(localSel, j)
		}
	}
	return f.pool.SumChunks(len(f.cand), func(lo, hi int) float64 {
		var obj float64
		for i := lo; i < hi; i++ {
			var bestS float32
			for _, j := range localSel {
				if s := f.sim(i, j); s > bestS {
					bestS = s
				}
			}
			obj += float64(bestS)
		}
		return obj
	})
}
