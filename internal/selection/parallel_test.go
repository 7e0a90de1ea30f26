package selection

import (
	"fmt"
	"math"
	"testing"

	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// withWorkers runs fn under a specific shared-pool size and restores
// the CPU-count default afterwards.
func withWorkers(n int, fn func()) {
	parallel.SetDefaultWorkers(n)
	defer parallel.SetDefaultWorkers(0)
	fn()
}

// parallelInstance is big enough that the fixed 512-wide chunk grid
// splits every candidate scan across several chunks, so the parallel
// path genuinely executes in parallel.
func parallelInstance(n, dim int) (*tensor.Matrix, []int) {
	r := tensor.NewRNG(99)
	emb := tensor.NewMatrix(n, dim)
	emb.FillNormal(r, 1)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	return emb, cand
}

func sameResult(t *testing.T, name string, serial, par Result) {
	t.Helper()
	if len(serial.Selected) != len(par.Selected) {
		t.Fatalf("%s: selected %d (serial) vs %d (parallel)", name, len(serial.Selected), len(par.Selected))
	}
	for i := range serial.Selected {
		if serial.Selected[i] != par.Selected[i] {
			t.Fatalf("%s: selected[%d] = %d (serial) vs %d (parallel)", name, i, serial.Selected[i], par.Selected[i])
		}
		if serial.Weights[i] != par.Weights[i] {
			t.Fatalf("%s: weights[%d] = %v (serial) vs %v (parallel)", name, i, serial.Weights[i], par.Weights[i])
		}
	}
	if math.Abs(serial.Objective-par.Objective) > 1e-6*(1+math.Abs(serial.Objective)) {
		t.Fatalf("%s: objective %v (serial) vs %v (parallel)", name, serial.Objective, par.Objective)
	}
}

func TestMaximizersParallelSerialEquivalence(t *testing.T) {
	// 40, 160 and 512 candidates run on the similarity tile, 1300 on
	// the chunked direct path.
	for _, n := range []int{40, 160, 512, 1300} {
		emb, cand := parallelInstance(n, 12)
		k := min(60, n/2)
		cases := []struct {
			name string
			run  func() (Result, error)
		}{
			{"naive", func() (Result, error) { return NaiveGreedy(emb, cand, k) }},
			{"lazy", func() (Result, error) { return LazyGreedy(emb, cand, k) }},
			{"stochastic", func() (Result, error) {
				return StochasticGreedy(emb, cand, k, 0.1, tensor.NewRNG(5))
			}},
		}
		for _, tc := range cases {
			var serial, par Result
			var err1, err2 error
			withWorkers(1, func() { serial, err1 = tc.run() })
			withWorkers(8, func() { par, err2 = tc.run() })
			if err1 != nil || err2 != nil {
				t.Fatalf("n=%d %s: errors %v / %v", n, tc.name, err1, err2)
			}
			sameResult(t, fmt.Sprintf("n=%d %s", n, tc.name), serial, par)
		}
	}
}

func TestPerClassWithParallelSerialEquivalence(t *testing.T) {
	emb, _ := parallelInstance(2000, 10)
	classes := make([][]int, 8)
	for i := 0; i < 2000; i++ {
		classes[i%8] = append(classes[i%8], i)
	}
	forClass := func(ci int) Maximizer {
		return StochasticMaximizer(0.1, ClassStream(42, ci))
	}
	var serial, par Result
	var err1, err2 error
	withWorkers(1, func() { serial, err1 = PerClassWith(emb, classes, 200, forClass) })
	withWorkers(8, func() { par, err2 = PerClassWith(emb, classes, 200, forClass) })
	if err1 != nil || err2 != nil {
		t.Fatalf("errors %v / %v", err1, err2)
	}
	sameResult(t, "perclass", serial, par)
}

func TestKCentersParallelSerialEquivalence(t *testing.T) {
	emb, cand := parallelInstance(1500, 8)
	var serial, par Result
	var err1, err2 error
	withWorkers(1, func() { serial, err1 = KCenters(emb, cand, 40) })
	withWorkers(8, func() { par, err2 = KCenters(emb, cand, 40) })
	if err1 != nil || err2 != nil {
		t.Fatalf("errors %v / %v", err1, err2)
	}
	sameResult(t, "kcenters", serial, par)
}

func TestStochasticGreedySamplesWithoutReplacement(t *testing.T) {
	// With eps small enough that the per-round sample covers the whole
	// pool, sampling without replacement must evaluate every remaining
	// candidate, making stochastic greedy select exactly the greedy
	// set. Sampling WITH replacement would almost surely miss some
	// candidates on this instance.
	emb, cand := parallelInstance(40, 5)
	k := 8
	st, err := StochasticGreedy(emb, cand, k, 1e-4, tensor.NewRNG(7)) // sample = ⌈n/k·ln(1e4)⌉ ≥ n
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NaiveGreedy(emb, cand, k)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, s := range st.Selected {
		got[s] = true
	}
	for _, s := range greedy.Selected {
		if !got[s] {
			t.Fatalf("full-coverage stochastic greedy missed greedy pick %d: selected %v, want %v",
				s, st.Selected, greedy.Selected)
		}
	}
}

func TestObjectiveParallelSerialEquivalence(t *testing.T) {
	emb, cand := parallelInstance(1700, 9)
	res, err := LazyGreedy(emb, cand, 25)
	if err != nil {
		t.Fatal(err)
	}
	var serial, par float64
	withWorkers(1, func() { serial = Objective(emb, cand, res.Selected) })
	withWorkers(8, func() { par = Objective(emb, cand, res.Selected) })
	if serial != par {
		t.Fatalf("objective %v (serial) vs %v (parallel)", serial, par)
	}
}
