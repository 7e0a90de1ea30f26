package selection

import (
	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// KCenters selects k centers from the candidates with the greedy
// farthest-point traversal of Sener & Savarese (2017): starting from an
// arbitrary point, repeatedly add the candidate farthest from its
// nearest already-selected center. The result is a 2-approximation of
// the optimal k-center cover radius. Unlike CRAIG it minimizes worst-
// case coverage of the feature space rather than gradient estimation
// error — which is why Table 3 shows it trailing at small subsets.
//
// Weights are cluster sizes under the nearest-center assignment, so
// the subset can be trained with the same weighted SGD as CRAIG.
func KCenters(emb *tensor.Matrix, cand []int, k int) (Result, error) {
	k, err := validate(emb, cand, k)
	if err != nil {
		return Result{}, err
	}
	n := len(cand)
	pool := parallel.Default()
	minDist := make([]float32, n)
	assign := make([]int, n) // nearest selected center (position in selected)
	for i := range minDist {
		minDist[i] = float32(1e30)
	}
	selected := make([]int, 0, k)

	// add relaxes every candidate's nearest-center distance against the
	// new center j; chunks write disjoint slots, and each slot depends
	// only on (i, j), so the parallel update is deterministic.
	add := func(j int) {
		si := len(selected)
		selected = append(selected, j)
		cj := emb.Row(cand[j])
		pool.ForChunks(n, func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := tensor.SqDist(emb.Row(cand[i]), cj); d < minDist[i] {
					minDist[i] = d
					assign[i] = si
				}
			}
		})
	}

	// farthest scans for the candidate with the largest nearest-center
	// distance: per-chunk argmax, then an ordered reduce over chunks so
	// ties resolve to the lowest index exactly as a serial scan would.
	nchunks := parallel.Chunks(n)
	chunkD := make([]float32, nchunks)
	chunkI := make([]int, nchunks)
	farthest := func() (int, float32) {
		pool.ForChunks(n, func(_, c, lo, hi int) {
			fi, fd := -1, float32(-1)
			for i := lo; i < hi; i++ {
				if d := minDist[i]; d > fd {
					fd, fi = d, i
				}
			}
			chunkD[c], chunkI[c] = fd, fi
		})
		farI, farD := -1, float32(-1)
		for c := 0; c < nchunks; c++ {
			if chunkD[c] > farD {
				farD, farI = chunkD[c], chunkI[c]
			}
		}
		return farI, farD
	}

	add(0)
	for len(selected) < k {
		farI, farD := farthest()
		if farI < 0 || farD == 0 {
			break // all remaining candidates coincide with a center
		}
		add(farI)
	}

	res := Result{
		Selected: make([]int, len(selected)),
		Weights:  make([]float32, len(selected)),
	}
	for si, j := range selected {
		res.Selected[si] = cand[j]
	}
	for i := range cand {
		res.Weights[assign[i]]++
	}
	return res, nil
}
