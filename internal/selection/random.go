package selection

import (
	"fmt"

	"nessa/internal/tensor"
)

// Random selects k candidates uniformly without replacement. Every
// selected sample carries weight n/k so the weighted subset gradient is
// an unbiased estimate of the full gradient — the baseline any coreset
// method must beat.
func Random(cand []int, k int, rng *tensor.RNG) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("selection: k must be positive, got %d", k)
	}
	if len(cand) == 0 {
		return Result{}, fmt.Errorf("selection: no candidates")
	}
	if k > len(cand) {
		k = len(cand)
	}
	if rng == nil {
		// A fixed stream keeps a nil-RNG call deterministic; replaying callers pass a seeded one.
		rng = tensor.NewRNG(1)
	}
	perm := rng.Perm(len(cand))
	res := Result{
		Selected: make([]int, k),
		Weights:  make([]float32, k),
	}
	w := float32(len(cand)) / float32(k)
	for i := 0; i < k; i++ {
		res.Selected[i] = cand[perm[i]]
		res.Weights[i] = w
	}
	return res, nil
}
