package selection

import (
	"fmt"
	"sort"

	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// Maximizer is any facility-location subset selector over candidate
// rows of an embedding matrix.
type Maximizer func(emb *tensor.Matrix, cand []int, k int) (Result, error)

// StochasticMaximizer adapts StochasticGreedy to the Maximizer
// signature; NaiveGreedy and LazyGreedy already have it.
func StochasticMaximizer(eps float64, rng *tensor.RNG) Maximizer {
	return func(emb *tensor.Matrix, cand []int, k int) (Result, error) {
		return StochasticGreedy(emb, cand, k, eps, rng)
	}
}

// ClassStream derives a deterministic, well-mixed RNG for class ci
// from a base seed. Consecutive class indices land on avalanche-mixed
// states (one SplitMix64 step apart at the input, fully decorrelated
// at the output), so per-class streams do not overlap — the building
// block for giving every PerClassWith class its own randomness.
func ClassStream(seed uint64, ci int) *tensor.RNG {
	return tensor.NewRNG(seed + uint64(ci)).Split()
}

// ClassMaximizer hands out an independent Maximizer for class ci, so
// each class owns its own state (e.g. RNG stream) and PerClassWith can
// fan classes out across the worker pool without sharing anything.
type ClassMaximizer func(ci int) Maximizer

// PerClassWith runs CRAIG-style selection: the budget k is split across
// classes in proportion to each class's candidate count (the paper
// computes pairwise similarities only within a class, §3.2.3), each
// class's maximizer picks its medoids, and results merge with their
// cluster weights intact.
//
// forClass(ci) builds a fresh maximizer per class and every class's
// selection dispatches to the shared worker pool (classes share no
// state — CRAIG computes similarities only within a class, making the
// fan-out embarrassingly parallel). A stateful maximizer (an RNG, say)
// must therefore be built per class, seeded from ci — ClassStream.
// Results merge in ascending class order, so the output is identical
// for any worker count provided forClass is deterministic per class
// index.
func PerClassWith(emb *tensor.Matrix, classes [][]int, k int, forClass ClassMaximizer) (Result, error) {
	var res Result
	if err := PerClassInto(&res, emb, classes, k, forClass); err != nil {
		return Result{}, err
	}
	return res, nil
}

// PerClassInto is PerClassWith merging into dst's arrays, which it
// reuses when they have the capacity. Paired with a Scratch per class
// (Scratch.StochasticMaximizer, Scratch.PartitionedMaximizer) a repeated
// selection reuses all of its storage.
func PerClassInto(dst *Result, emb *tensor.Matrix, classes [][]int, k int, forClass ClassMaximizer) error {
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	if total == 0 {
		return fmt.Errorf("selection: no candidates in any class")
	}
	if k <= 0 {
		return fmt.Errorf("selection: k must be positive, got %d", k)
	}
	if k > total {
		k = total
	}
	budgets := splitBudget(classes, k, total)

	results := make([]Result, len(classes))
	errs := make([]error, len(classes))
	parallel.Default().For(len(classes), 1, func(_, _, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			if cand := classes[ci]; len(cand) > 0 && budgets[ci] > 0 {
				results[ci], errs[ci] = forClass(ci)(emb, cand, budgets[ci])
			}
		}
	})

	dst.Selected, dst.Weights, dst.Objective = dst.Selected[:0], dst.Weights[:0], 0
	for ci := range classes {
		if errs[ci] != nil {
			return fmt.Errorf("selection: class %d: %w", ci, errs[ci])
		}
		r := results[ci]
		dst.Selected = append(dst.Selected, r.Selected...)
		dst.Weights = append(dst.Weights, r.Weights...)
		dst.Objective += r.Objective
	}
	return nil
}

// splitBudget apportions k across classes proportionally to their
// candidate counts (largest-remainder rounding), guaranteeing every
// non-empty class at least one pick when k allows it and that budgets
// sum to exactly min(k, total).
func splitBudget(classes [][]int, k, total int) []int {
	counts := make([]int, len(classes))
	for ci, c := range classes {
		counts[ci] = len(c)
	}
	return SplitBudgetCounts(counts, k, total)
}

// SplitBudgetCounts is splitBudget over class sizes instead of class
// member lists: counts[ci] is the number of candidates in class ci and
// total is their sum. The streaming selector reuses it so that batch
// and single-pass selection agree on per-class budgets exactly.
func SplitBudgetCounts(counts []int, k, total int) []int {
	type share struct {
		ci   int
		frac float64
		size int
	}
	budgets := make([]int, len(counts))
	shares := make([]share, 0, len(counts))
	for ci, n := range counts {
		if n == 0 {
			continue
		}
		shares = append(shares, share{ci: ci, size: n})
	}
	if len(shares) == 0 {
		return budgets
	}
	// Fewer picks than classes: give one pick each to the k largest
	// classes (deterministic tie-break on index).
	if k < len(shares) {
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].size != shares[j].size {
				return shares[i].size > shares[j].size
			}
			return shares[i].ci < shares[j].ci
		})
		for i := 0; i < k; i++ {
			budgets[shares[i].ci] = 1
		}
		return budgets
	}

	assigned := 0
	for i := range shares {
		exact := float64(k) * float64(shares[i].size) / float64(total)
		b := int(exact)
		if b < 1 {
			b = 1
		}
		if b > shares[i].size {
			b = shares[i].size
		}
		budgets[shares[i].ci] = b
		assigned += b
		shares[i].frac = exact - float64(int(exact))
	}
	// Distribute leftovers to the largest remainders with headroom;
	// trim over-assignment from the smallest remainders, never below 1.
	sort.Slice(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	for pass := 0; assigned < k && pass < k; pass++ {
		progress := false
		for _, s := range shares {
			if assigned >= k {
				break
			}
			if budgets[s.ci] < s.size {
				budgets[s.ci]++
				assigned++
				progress = true
			}
		}
		if !progress {
			break // every class saturated: k exceeds total
		}
	}
	for pass := 0; assigned > k && pass < k; pass++ {
		progress := false
		for i := len(shares) - 1; i >= 0 && assigned > k; i-- {
			if budgets[shares[i].ci] > 1 {
				budgets[shares[i].ci]--
				assigned--
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return budgets
}
