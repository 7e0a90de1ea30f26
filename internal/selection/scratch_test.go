package selection

import (
	"testing"

	"nessa/internal/tensor"
)

// TestScratchSelectionSteadyStateAllocs: per-class selection on one
// Scratch per class — stochastic greedy inside a partition, the core
// controller's configuration — selects bit for bit what PerClassWith
// selects on the allocating entry points, pass after pass, and once the
// first pass has sized the scratches a pass allocates only its few
// per-call descriptors and closures.
func TestScratchSelectionSteadyStateAllocs(t *testing.T) {
	const n, dim, classes, k, m = 3000, 10, 5, 600, 16
	emb, _ := parallelInstance(n, dim)
	lists := make([][]int, classes)
	for i := 0; i < n; i++ {
		lists[i%classes] = append(lists[i%classes], i)
	}
	scratch := make([]*Scratch, classes)
	for ci := range scratch {
		scratch[ci] = new(Scratch)
	}
	rngs := make([]tensor.RNG, classes)
	var dst Result
	pass := func(seed uint64) error {
		return PerClassInto(&dst, emb, lists, k, func(ci int) Maximizer {
			rng, sc := &rngs[ci], scratch[ci]
			rng.SetState(ClassStream(seed, ci).State())
			return sc.PartitionedMaximizer(m, rng, sc.StochasticMaximizer(0.1, rng))
		})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		want, err := PerClassWith(emb, lists, k, func(ci int) Maximizer {
			rng := ClassStream(seed, ci)
			return PartitionedMaximizer(m, rng, StochasticMaximizer(0.1, rng))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pass(seed); err != nil {
			t.Fatal(err)
		}
		if err := bitIdentical(dst, want); err != nil {
			t.Fatalf("seed %d: scratch selection differs from PerClassWith: %v", seed, err)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := pass(4); err != nil {
			t.Fatal(err)
		}
	})
	// Per pass: the budget split, the results and errors of the class
	// fan-out and its closure, and two maximizer closures per class.
	if allocs > 24 {
		t.Fatalf("a warm scratch selection made %.0f allocations, want ≤ 24", allocs)
	}
}
