package selection

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nessa/internal/tensor"
)

// bitIdentical reports where two results differ in any bit of their
// subsets, weights or objective.
func bitIdentical(a, b Result) error {
	if len(a.Selected) != len(b.Selected) {
		return fmt.Errorf("selected %d vs %d", len(a.Selected), len(b.Selected))
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			return fmt.Errorf("selected[%d] = %d vs %d", i, a.Selected[i], b.Selected[i])
		}
		if math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) {
			return fmt.Errorf("weights[%d] = %v vs %v", i, a.Weights[i], b.Weights[i])
		}
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Errorf("objective %v vs %v", a.Objective, b.Objective)
	}
	return nil
}

// tileInstances returns the embeddings the tile is held to at n rows
// of dim components: random rows, all-zero rows (c0 = 1, every
// similarity ties) and rows repeating a third as many distinct ones.
func tileInstances(n, dim int) (kinds []string, embs []*tensor.Matrix) {
	r := tensor.NewRNG(uint64(1000*n + dim))
	random := tensor.NewMatrix(n, dim)
	random.FillNormal(r, 1)
	dup := tensor.NewMatrix(n, dim)
	distinct := max(1, n/3)
	for i := 0; i < n; i++ {
		copy(dup.Row(i), random.Row(i%distinct))
	}
	return []string{"random", "zero", "dup"}, []*tensor.Matrix{random, tensor.NewMatrix(n, dim), dup}
}

func TestTiledMatchesDirect(t *testing.T) {
	dims := []int{1, 10, 32}
	if raceEnabled {
		dims = []int{10}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 40, 160, 511, 512, 513} {
		cand := make([]int, n)
		for i := range cand {
			cand[i] = i
		}
		k := 1 + n/64
		for _, dim := range dims {
			kinds, embs := tileInstances(n, dim)
			for ki, emb := range embs {
				kind := kinds[ki]
				maximizers := []struct {
					name string
					run  func() (Result, error)
				}{
					{"naive", func() (Result, error) { return NaiveGreedy(emb, cand, k) }},
					{"lazy", func() (Result, error) { return LazyGreedy(emb, cand, k) }},
					{"stochastic", func() (Result, error) {
						return StochasticGreedy(emb, cand, k, 0.1, tensor.NewRNG(5))
					}},
					{"partitioned", func() (Result, error) {
						rng := tensor.NewRNG(6)
						return Partitioned(emb, cand, 4*k, 4, rng, StochasticMaximizer(0.1, rng))
					}},
				}
				for _, mx := range maximizers {
					name, run := mx.name, mx.run
					tiled, err := run()
					if err != nil {
						t.Fatal(err)
					}
					directOnly = true
					direct, err := run()
					directOnly = false
					if err != nil {
						t.Fatal(err)
					}
					if err := bitIdentical(tiled, direct); err != nil {
						t.Fatalf("n=%d dim=%d %s %s: tiled vs direct: %v", n, dim, kind, name, err)
					}
					if kind == "zero" && name == "naive" {
						// Every gain ties, so greedy takes candidates in
						// index order and every candidate joins the first
						// medoid.
						for i, s := range tiled.Selected {
							if s != i {
								t.Fatalf("n=%d dim=%d zero naive: selected %v, want 0..%d", n, dim, tiled.Selected, k-1)
							}
						}
						if tiled.Weights[0] != float32(n) {
							t.Fatalf("n=%d dim=%d zero naive: weights %v, want all %d on the first", n, dim, tiled.Weights, n)
						}
					}
				}
			}
		}
	}
}

func TestPartitionedReusesTileStorage(t *testing.T) {
	const n, dim, k, m = 4000, 10, 400, 16
	emb, cand := parallelInstance(n, dim)
	rng := tensor.NewRNG(3)
	sel := PartitionedMaximizer(m, rng, StochasticMaximizer(0.1, rng))
	if _, err := sel(emb, cand, k); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sel(emb, cand, k); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// k/m = 25 chunks of 160 rows. Each chunk's tile and packed rows are
	// 160·(160+dim)·4 B = 106 KiB, so allocating them per chunk would
	// cost 2.6 MiB. The bound is two chunks' worth, whatever the count.
	chunk := n / (k / m)
	bound := uint64(2 * chunk * (chunk + dim) * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("warm partitioned selection allocated %d B, want ≤ %d B (tile storage is allocated per chunk)", got, bound)
	}
}
