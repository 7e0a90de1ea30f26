package selection

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nessa/internal/tensor"
)

// randomInstance builds a small random embedding matrix and candidate
// list for property tests.
func randomInstance(seed uint64, maxN, dim int) (*tensor.Matrix, []int, *tensor.RNG) {
	r := tensor.NewRNG(seed)
	n := 2 + r.Intn(maxN-1)
	emb := tensor.NewMatrix(n, dim)
	emb.FillNormal(r, 1)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	return emb, cand, r
}

func TestLazyGreedyMatchesNaiveObjective(t *testing.T) {
	// Minoux's lazy greedy is the same greedy as the naive scan, with
	// equal gains broken toward the lower position on both sides, so it
	// must pick the same candidates in the same order. 0x4b9e7ccb3cbce494
	// (n = 11, k = 8) ties candidates 0 and 4 after the first pick.
	same := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 40, 4)
		k := 1 + r.Intn(len(cand))
		naive, err1 := NaiveGreedy(emb, cand, k)
		lazy, err2 := LazyGreedy(emb, cand, k)
		if err1 != nil || err2 != nil {
			return false
		}
		return slices.Equal(naive.Selected, lazy.Selected) && naive.Objective == lazy.Objective
	}
	if !same(0x4b9e7ccb3cbce494) {
		t.Error("tied gains: LazyGreedy and NaiveGreedy select differently on seed 0x4b9e7ccb3cbce494")
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStochasticGreedyNearGreedy(t *testing.T) {
	// Stochastic greedy guarantees (1−1/e−ε) of optimal in expectation;
	// against the greedy objective it should stay within a comfortable
	// factor on random instances.
	f := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 40, 4)
		k := 1 + r.Intn(len(cand))
		naive, err1 := NaiveGreedy(emb, cand, k)
		st, err2 := StochasticGreedy(emb, cand, k, 0.1, r)
		if err1 != nil || err2 != nil {
			return false
		}
		if naive.Objective == 0 {
			return true
		}
		return st.Objective >= 0.5*naive.Objective
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyObjectiveMonotoneInK(t *testing.T) {
	// F(S) is monotone: a larger budget never hurts the objective.
	emb, cand, _ := randomInstance(42, 30, 3)
	prev := -1.0
	for k := 1; k <= len(cand); k++ {
		r, err := NaiveGreedy(emb, cand, k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Objective < prev-1e-6 {
			t.Fatalf("objective decreased at k=%d: %v -> %v", k, prev, r.Objective)
		}
		prev = r.Objective
	}
}

func TestGreedyGainsDiminish(t *testing.T) {
	// Submodularity: the marginal gains logged by greedy are
	// non-increasing across rounds.
	emb, cand, _ := randomInstance(7, 30, 3)
	f := newFacility(new(Scratch), emb, cand)
	best := make([]float32, len(cand))
	chosen := make([]bool, len(cand))
	prevGain := math.Inf(1)
	for round := 0; round < len(cand); round++ {
		bestJ, bestG := -1, -1.0
		for j := range cand {
			if chosen[j] {
				continue
			}
			if g := f.gain(j, best); g > bestG {
				bestG, bestJ = g, j
			}
		}
		if bestG > prevGain+1e-3 {
			t.Fatalf("gain increased at round %d: %v -> %v", round, prevGain, bestG)
		}
		prevGain = bestG
		chosen[bestJ] = true
		f.absorb(bestJ, best)
	}
}

func TestWeightsSumToCandidateCount(t *testing.T) {
	f := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 40, 4)
		k := 1 + r.Intn(len(cand))
		for _, sel := range []func() (Result, error){
			func() (Result, error) { return NaiveGreedy(emb, cand, k) },
			func() (Result, error) { return LazyGreedy(emb, cand, k) },
			func() (Result, error) { return StochasticGreedy(emb, cand, k, 0.1, r) },
			func() (Result, error) { return KCenters(emb, cand, k) },
		} {
			res, err := sel()
			if err != nil {
				return false
			}
			var sum float32
			for _, w := range res.Weights {
				sum += w
			}
			if math.Abs(float64(sum)-float64(len(cand))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectedAreDistinctAndFromCandidates(t *testing.T) {
	f := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 40, 4)
		// Use a strict subset of rows as candidates.
		sub := cand[:1+r.Intn(len(cand))]
		k := 1 + r.Intn(len(sub))
		res, err := LazyGreedy(emb, sub, k)
		if err != nil {
			return false
		}
		inCand := make(map[int]bool)
		for _, c := range sub {
			inCand[c] = true
		}
		seen := make(map[int]bool)
		for _, s := range res.Selected {
			if !inCand[s] || seen[s] {
				return false
			}
			seen[s] = true
		}
		return len(res.Selected) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyPicksTheMedoidsOnClearClusters(t *testing.T) {
	// Three tight clusters: with k=3 the greedy must take one point
	// from each cluster.
	r := tensor.NewRNG(3)
	emb := tensor.NewMatrix(30, 2)
	for i := 0; i < 30; i++ {
		cluster := i / 10
		emb.Set(i, 0, float32(float32(cluster)*10)+float32(r.NormFloat32()*0.1))
		emb.Set(i, 1, float32(float32(cluster)*10)+float32(r.NormFloat32()*0.1))
	}
	cand := make([]int, 30)
	for i := range cand {
		cand[i] = i
	}
	res, err := NaiveGreedy(emb, cand, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, s := range res.Selected {
		got[s/10] = true
	}
	if len(got) != 3 {
		t.Fatalf("greedy covered clusters %v, want all 3", got)
	}
	// Each medoid should carry ~10 weight.
	for i, w := range res.Weights {
		if w < 8 || w > 12 {
			t.Errorf("medoid %d weight = %v, want ~10", i, w)
		}
	}
}

func TestObjectiveMatchesGreedyAccumulation(t *testing.T) {
	emb, cand, _ := randomInstance(11, 25, 3)
	res, err := NaiveGreedy(emb, cand, 5)
	if err != nil {
		t.Fatal(err)
	}
	obj := Objective(emb, cand, res.Selected)
	if math.Abs(obj-res.Objective) > 1e-2*(1+math.Abs(obj)) {
		t.Fatalf("accumulated objective %v != recomputed %v", res.Objective, obj)
	}
}

func TestKGreaterThanNClamps(t *testing.T) {
	emb, cand, _ := randomInstance(5, 10, 2)
	res, err := LazyGreedy(emb, cand, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != len(cand) {
		t.Fatalf("selected %d, want all %d", len(res.Selected), len(cand))
	}
}

func TestValidationErrors(t *testing.T) {
	emb := tensor.NewMatrix(5, 2)
	if _, err := NaiveGreedy(emb, []int{0, 1}, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := LazyGreedy(emb, nil, 3); err == nil {
		t.Error("expected error for empty candidates")
	}
	if _, err := StochasticGreedy(emb, []int{9}, 1, 0.1, nil); err == nil {
		t.Error("expected error for out-of-range candidate")
	}
}

func TestIdenticalEmbeddingsDegenerate(t *testing.T) {
	// All-identical embeddings: any selection is optimal; weights must
	// still sum to n and no panic may occur.
	emb := tensor.NewMatrix(10, 3) // all zeros
	cand := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	res, err := LazyGreedy(emb, cand, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum float32
	for _, w := range res.Weights {
		sum += w
	}
	if sum != 10 {
		t.Fatalf("weights sum = %v, want 10", sum)
	}
}
