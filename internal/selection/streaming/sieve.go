package streaming

import (
	"math"

	"nessa/internal/tensor"
)

// sieveLevel is one rung of the geometric threshold ladder (sieve
// streaming, Badanidiyuru et al. 2014): a candidate buffer of up to kc
// elements built greedily against the threshold τ = (1+ε)^j. best[i]
// caches the level's coverage of reservoir slot i, so a marginal gain
// is one pass over the reservoir.
type sieveLevel struct {
	j     int
	tau   float64
	count int
	f     float64   // estimated objective, in reservoir-sum units
	ids   []int     // cap kc: stream positions of the buffered elements
	emb   []float32 // kc × dim buffered embeddings
	best  []float32 // cap R: coverage of each reservoir slot
}

// classSieve is the per-class streaming selection state: the threshold
// ladder, the uniform reservoir that stands in for the class's full
// similarity structure, a staged-replacement buffer that keeps the
// reservoir frozen within a batch (so GEMM-computed similarities stay
// consistent), and a top-singleton backup buffer used to top the final
// set up to the budget. Every buffer is preallocated in reset;
// the per-record path allocates nothing.
type classSieve struct {
	class int
	kc    int
	dim   int
	rcap  int
	c0    float32
	eps   float64
	logE  float64 // ln(1+ε)

	seen int     // class records streamed so far
	m    float64 // max singleton estimate seen, reservoir-sum units
	// ceil is the largest similarity this class has produced: every row
	// maximum push was handed and every coverage value applyPending
	// rebuilt. It bounds each sims[i] and each best[i] from above as
	// float values, whatever C0 and the embedding scale round to.
	ceil float32

	// Ladder work counters, summed into Stats by Finish.
	rungVisits, rungPruned, rungScans, rungAccepts int64

	levels []*sieveLevel // active ladder, ascending j
	freeLv []*sieveLevel
	lvAll  []*sieveLevel // every level struct the sieve owns, active or free

	// Uniform reservoir over the class stream.
	res      *tensor.Matrix // R × dim
	resNorm  []float32      // ‖row‖² per slot
	resCount int
	resView  tensor.Matrix // the reservoir's filled rows, for a batch's GEMM
	rng      *tensor.RNG

	// Replacements staged during a batch, applied at batch end.
	pend     *tensor.Matrix // R × dim staged rows
	pendMark []bool
	pendSlot []int
	pendLen  int

	// Top-singleton backup: the kc highest-value elements seen, for
	// topping the final selection up to the budget.
	bakIDs  []int
	bakVals []float64
	bakEmb  []float32 // kc × dim
	bakLen  int
	bakMin  int // index of the smallest bakVals entry when full

	prefill int // rows of the current batch consumed by reservoir prefill

	lvNorm []float32 // cap kc: applyPending's norms of one rung's buffered rows
}

// reset plans cs for a new class stream — budget kc, dim-wide rows,
// rcap reservoir rows, a ladder of at most maxLevels rungs — as if it
// were new, reusing every buffer that is large enough. Only the
// contents of the reservoir rows, the backup set and the level buffers
// survive, and the sieve writes each of those before it reads it.
func (cs *classSieve) reset(class, kc, dim, rcap, maxLevels int, eps float64, c0 float32, rng *tensor.RNG) {
	*cs = classSieve{
		class: class, kc: kc, dim: dim, rcap: rcap, c0: c0, eps: eps,
		logE:     math.Log1p(eps),
		rng:      rng,
		res:      reuseMatrix(cs.res, rcap, dim),
		resNorm:  grow(cs.resNorm, rcap),
		pend:     reuseMatrix(cs.pend, rcap, dim),
		pendMark: grow(cs.pendMark, rcap),
		pendSlot: grow(cs.pendSlot, rcap),
		bakIDs:   grow(cs.bakIDs, kc),
		bakVals:  grow(cs.bakVals, kc),
		bakEmb:   grow(cs.bakEmb, kc*dim),
		levels:   grow(cs.levels, maxLevels)[:0:maxLevels],
		freeLv:   grow(cs.freeLv, maxLevels)[:0:maxLevels],
		lvAll:    cs.lvAll,
		lvNorm:   grow(cs.lvNorm, kc),
	}
	clear(cs.pendMark)
	for len(cs.lvAll) < maxLevels {
		cs.lvAll = append(cs.lvAll, &sieveLevel{})
	}
	for _, lv := range cs.lvAll[:maxLevels] {
		lv.ids = grow(lv.ids, kc)
		lv.emb = grow(lv.emb, kc*dim)
		lv.best = grow(lv.best, rcap)
		cs.freeLv = append(cs.freeLv, lv)
	}
}

// reuseMatrix returns m reshaped to rows × cols, reusing its storage
// when it is large enough.
func reuseMatrix(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil {
		return tensor.NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, grow(m.Data, rows*cols)
	return m
}

// memoryBytes reports the resident selection-state bytes of this class:
// the buffers its plan sized, whatever larger storage a reset reused.
func (cs *classSieve) memoryBytes() int64 {
	b := int64(len(cs.res.Data)+len(cs.pend.Data)) * 4
	b += int64(len(cs.resNorm)) * 4
	b += int64(len(cs.pendSlot)) * 8
	b += int64(len(cs.pendMark))
	b += int64(len(cs.bakIDs))*8 + int64(len(cs.bakVals))*8 + int64(len(cs.bakEmb))*4
	// Every level struct, active or free, was sized by the plan.
	b += int64(cap(cs.levels)) * (int64(cs.kc)*(8+4*int64(cs.dim)) + int64(cs.rcap)*4)
	return b
}

// maxLadderLevels bounds the active window size of the threshold
// ladder for budget kc and ratio ε: thresholds live in [m, 2·kc·m], so
// at most ln(2kc)/ln(1+ε) rungs are alive at once (plus slack for the
// ceiling arithmetic at both ends). A near-zero ε is clamped to a
// ladder no budget holds rather than overflowing int.
func maxLadderLevels(kc int, eps float64) int {
	n := math.Ceil(math.Log(2*float64(kc))/math.Log1p(eps)) + 3
	return int(min(max(n, 4), 1<<40))
}

// window computes the live exponent range [jLo, jHi] for the current
// max singleton m: the smallest j with (1+ε)^j ≥ m through the
// smallest j with (1+ε)^j ≥ 2·kc·m.
func (cs *classSieve) window() (jLo, jHi int) {
	lm := math.Log(cs.m)
	jLo = int(math.Ceil(lm/cs.logE - 1e-9))
	jHi = int(math.Ceil((lm+math.Log(2*float64(cs.kc)))/cs.logE - 1e-9))
	if want := cap(cs.levels); jHi-jLo+1 > want {
		jLo = jHi - want + 1
	}
	return jLo, jHi
}

// updateWindow reconciles the active ladder with the window implied by
// the current m: dominated low rungs are recycled, new high rungs are
// drawn from the free list. Called whenever m grows; not on the
// per-record hot path.
func (cs *classSieve) updateWindow() {
	jLo, jHi := cs.window()
	drop := 0
	for drop < len(cs.levels) && cs.levels[drop].j < jLo {
		drop++
	}
	if drop > 0 {
		for i := 0; i < drop; i++ {
			cs.freeLv = append(cs.freeLv, cs.levels[i])
		}
		n := copy(cs.levels, cs.levels[drop:])
		cs.levels = cs.levels[:n]
	}
	next := jLo
	if n := len(cs.levels); n > 0 {
		next = cs.levels[n-1].j + 1
	}
	for j := next; j <= jHi && len(cs.freeLv) > 0; j++ {
		lv := cs.freeLv[len(cs.freeLv)-1]
		cs.freeLv = cs.freeLv[:len(cs.freeLv)-1]
		lv.j = j
		lv.tau = math.Exp(float64(j) * cs.logE)
		lv.count = 0
		lv.f = 0
		for i := range lv.best {
			lv.best[i] = 0
		}
		cs.levels = append(cs.levels, lv)
	}
}

// saturationSlack pads the saturation bound of push so it stays an
// upper bound on the gain as the float arithmetic computes it: the
// float32 differences and float64 sums behind gain and f drift from
// their exact values by under 3·2⁻²⁴ of n·ceil in total for any
// reservoir and budget below 2²⁶ rows (DESIGN.md §4.10), and 2⁻²⁰
// covers that five times over.
const saturationSlack = 1.0 / (1 << 20)

// push consumes one class record: id is its stream position, emb its
// gradient embedding, sims its clamped similarity row against the
// frozen reservoir (length = resCount at batch start), v its raw
// singleton value Σᵢ sims[i] and top its largest entry maxᵢ sims[i].
// A class's records arrive in stream order — all the batched work
// (GEMM, similarity transform) happened before.
//
//nessa:hotpath
func (cs *classSieve) push(id int, emb []float32, sims []float32, v float64, top float32) {
	// Backup buffer: keep the kc largest singletons (ties keep the
	// earlier arrival, so reruns are bit-identical).
	if cs.bakLen < cs.kc {
		cs.bakIDs[cs.bakLen] = id
		cs.bakVals[cs.bakLen] = v
		copy(cs.bakEmb[cs.bakLen*cs.dim:(cs.bakLen+1)*cs.dim], emb)
		cs.bakLen++
		if cs.bakLen == cs.kc {
			cs.bakMin = 0
			for i := 1; i < cs.bakLen; i++ {
				if cs.bakVals[i] < cs.bakVals[cs.bakMin] {
					cs.bakMin = i
				}
			}
		}
	} else if v > cs.bakVals[cs.bakMin] {
		cs.bakIDs[cs.bakMin] = id
		cs.bakVals[cs.bakMin] = v
		copy(cs.bakEmb[cs.bakMin*cs.dim:(cs.bakMin+1)*cs.dim], emb)
		for i := 0; i < cs.bakLen; i++ {
			if cs.bakVals[i] < cs.bakVals[cs.bakMin] {
				cs.bakMin = i
			}
		}
	}

	if v > cs.m {
		cs.m = v
		cs.updateWindow()
	}
	if top > cs.ceil {
		cs.ceil = top
	}

	// The threshold ladder. A rung's gain is Σᵢ max(0, sims[i]−best[i]):
	// at most v because best ≥ 0, and at most n·ceil − f because
	// sims[i] ≤ ceil and f = Σᵢ best[i]. A rung whose need exceeds
	// either bound cannot accept, so its reservoir scan is skipped; the
	// second bound is what a saturated rung — coverage already near the
	// ceiling on every slot — fails for almost every record.
	// float64(x*y) rounds each product before a later add takes it:
	// gc may fuse a product into an add across statements, and only a
	// conversion forbids it (also in need's τ/2, a product to gc).
	span := float64(float64(len(sims)) * float64(cs.ceil))
	slack := float64(span * saturationSlack)
	var pruned, scans, accepts int64
	for _, lv := range cs.levels {
		if lv.count == cs.kc {
			continue
		}
		need := (float64(lv.tau/2) - lv.f) / float64(cs.kc-lv.count)
		if need < 1e-12 {
			// A level past τ/2 accepts anything; demand a real gain so
			// duplicate and zero-norm records don't squat in buffers.
			need = 1e-12
		}
		if v < need {
			continue
		}
		if span-lv.f+slack < need {
			pruned++
			continue
		}
		scans++
		// Branch-free: which slots improve is data the predictor cannot
		// learn, and adding the +0 of a slot that does not improve
		// leaves gain's bits alone. (Only a NaN similarity behaves
		// differently from a skipped slot, and a stream that produces
		// one has already poisoned the reservoir.)
		var gain float64
		best := lv.best[:len(sims)]
		for i, s := range sims {
			gain += float64(max(s-best[i], 0))
		}
		if gain < need {
			continue
		}
		accepts++
		lv.ids[lv.count] = id
		copy(lv.emb[lv.count*cs.dim:(lv.count+1)*cs.dim], emb)
		lv.count++
		lv.f += gain
		for i, s := range sims {
			if s > lv.best[i] {
				lv.best[i] = s
			}
		}
	}
	cs.rungVisits += int64(len(cs.levels))
	cs.rungPruned += pruned
	cs.rungScans += scans
	cs.rungAccepts += accepts
}

// offerReservoir runs the reservoir policy for one non-prefilled class
// record: standard uniform reservoir sampling with replacements staged
// into pend so the reservoir the batch's similarities were computed
// against stays frozen until applyPending.
//
//nessa:hotpath
func (cs *classSieve) offerReservoir(emb []float32) {
	// seen already counts this record.
	j := cs.rng.Intn(cs.seen)
	if j >= cs.rcap {
		return
	}
	copy(cs.pend.Data[j*cs.dim:(j+1)*cs.dim], emb)
	if !cs.pendMark[j] {
		cs.pendMark[j] = true
		cs.pendSlot[cs.pendLen] = j
		cs.pendLen++
	}
}

// prefillReservoir copies one record straight into the next reservoir
// slot (the warm-up phase: the first R class records always enter).
func (cs *classSieve) prefillReservoir(emb []float32) {
	slot := cs.resCount
	copy(cs.res.Data[slot*cs.dim:(slot+1)*cs.dim], emb)
	cs.resNorm[slot] = tensor.Dot(emb, emb)
	cs.resCount++
}

// applyPending installs the batch's staged reservoir replacements and
// rebuilds every level's coverage of the touched slots (and its f,
// which is their sum). Replacements are rare after warm-up — the
// expected total over the stream is R·ln(n/R) — so this stays cheap.
// Each rung's buffered-row norms are computed once per call, not once
// per touched slot.
func (cs *classSieve) applyPending() {
	if cs.pendLen == 0 {
		return
	}
	for s := 0; s < cs.pendLen; s++ {
		slot := cs.pendSlot[s]
		row := cs.res.Data[slot*cs.dim : (slot+1)*cs.dim]
		copy(row, cs.pend.Data[slot*cs.dim:(slot+1)*cs.dim])
		cs.resNorm[slot] = tensor.Dot(row, row)
		cs.pendMark[slot] = false
	}
	for _, lv := range cs.levels {
		norms := cs.lvNorm[:lv.count]
		for t := range norms {
			e := lv.emb[t*cs.dim : (t+1)*cs.dim]
			norms[t] = tensor.Dot(e, e)
		}
		for s := 0; s < cs.pendLen; s++ {
			slot := cs.pendSlot[s]
			row := cs.res.Data[slot*cs.dim : (slot+1)*cs.dim]
			var best float32
			for t, nb := range norms {
				if sim := cs.simPairN(row, cs.resNorm[slot], lv.emb[t*cs.dim:(t+1)*cs.dim], nb); sim > best {
					best = sim
				}
			}
			lv.best[slot] = best
			if best > cs.ceil {
				cs.ceil = best
			}
		}
		var f float64
		for i := 0; i < cs.resCount; i++ {
			f += float64(lv.best[i])
		}
		lv.f = f
	}
	cs.pendLen = 0
}

// simPairN computes the clamped facility-location similarity
// max(0, c0 − ‖a−b‖²) between a reservoir row a and a candidate b, given
// both squared norms, matching the batched GEMM transform's formula.
func (cs *classSieve) simPairN(a []float32, na float32, b []float32, nb float32) float32 {
	return cs.clampSim(na, nb, tensor.Dot(a, b))
}

// clampSim is max(0, c0 − na − nb + 2·dot) in that association: the one
// place finish's GEMM block and simPairN turn a dot product into a
// similarity, so the two agree bit for bit.
func (cs *classSieve) clampSim(na, nb, dot float32) float32 {
	s := cs.c0 - na - nb + 2*dot
	if s < 0 {
		return 0
	}
	return s
}
