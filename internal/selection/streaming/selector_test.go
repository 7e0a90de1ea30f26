package streaming

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nessa/internal/parallel"
	"nessa/internal/selection"
	"nessa/internal/tensor"
)

// clusteredEmb builds n rows around nClusters unit-ish centers so that
// facility location has real structure to find, and labels each row
// round-robin over classes.
func clusteredEmb(seed uint64, n, d, nClusters, classes int) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	centers := tensor.NewMatrix(nClusters, d)
	for i := range centers.Data {
		centers.Data[i] = rng.NormFloat32() * 0.5
	}
	emb := tensor.NewMatrix(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(nClusters)
		row := emb.Row(i)
		copy(row, centers.Row(c))
		for j := range row {
			row[j] += float32(rng.NormFloat32() * 0.08)
		}
		labels[i] = i % classes
	}
	return emb, labels
}

// randRows fills an n × d matrix from a seeded RNG.
func randRows(seed uint64, n, d int) *tensor.Matrix {
	rng := tensor.NewRNG(seed)
	m := tensor.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

func pushAll(t *testing.T, sel *Selector, emb *tensor.Matrix, labels []int, chunk int) {
	t.Helper()
	for lo := 0; lo < emb.Rows; lo += chunk {
		hi := lo + chunk
		if hi > emb.Rows {
			hi = emb.Rows
		}
		view := tensor.Matrix{Rows: hi - lo, Cols: emb.Cols, Data: emb.Data[lo*emb.Cols : hi*emb.Cols]}
		if err := sel.Push(&view, nil, labels[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingQualityVsLazyGreedy gates the streaming selection at
// ≥ 90% of exact lazy greedy on a DRAM-sized instance, measured by the
// exact batch objective over both subsets (the bench gate's criterion).
func TestStreamingQualityVsLazyGreedy(t *testing.T) {
	const n, d, k = 2000, 8, 40
	emb, _ := clusteredEmb(31, n, d, 12, 1)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	exact, err := selection.LazyGreedy(emb, cand, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Maximizer(Config{Seed: 5})(emb, cand, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != k {
		t.Fatalf("selected %d, want %d", len(res.Selected), k)
	}
	fExact := selection.Objective(emb, cand, exact.Selected)
	fStream := selection.Objective(emb, cand, res.Selected)
	if fStream < 0.9*fExact {
		t.Fatalf("streaming objective %.4g < 90%% of exact %.4g (%.1f%%)",
			fStream, fExact, 100*fStream/fExact)
	}
	var wsum float64
	for _, w := range res.Weights {
		wsum += float64(w)
	}
	if wsum < float64(n)*0.99 || wsum > float64(n)*1.01 {
		t.Fatalf("weights sum %.1f, want ≈ %d", wsum, n)
	}
}

// TestStreamingWorkerInvariance: for a fixed seed the selection is
// bit-identical at any worker count, whatever the batch sizes and
// however the pool spreads the per-class sieve passes (S2).
func TestStreamingWorkerInvariance(t *testing.T) {
	const n, d, classes, k = 1500, 6, 4, 48
	emb, labels := clusteredEmb(77, n, d, 9, classes)
	for i := range labels {
		// Uneven classes, so the class passes differ in length.
		if i%7 == 0 {
			labels[i] = 0
		}
	}
	run := func(workers int, batches []int) selection.Result {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		sel, err := NewSelector(Config{Classes: classes, Dim: d, K: k, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for lo, b := 0, 0; lo < n; b++ {
			hi := lo + batches[b%len(batches)]
			if hi > n {
				hi = n
			}
			ev := tensor.Matrix{Rows: hi - lo, Cols: d, Data: emb.Data[lo*d : hi*d]}
			if err := sel.Push(&ev, nil, labels[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		res, _, err := sel.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, batches := range [][]int{{256}, {1, 97, 13, 400}} {
		want := run(1, batches)
		if len(want.Selected) == 0 {
			t.Fatalf("batches=%v: nothing selected", batches)
		}
		for _, workers := range []int{2, 3, 7} {
			got := run(workers, batches)
			if !slices.Equal(got.Selected, want.Selected) || !sameF32(got.Weights, want.Weights) ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("batches=%v: selection at %d workers differs from 1 worker", batches, workers)
			}
		}
	}
}

// TestStreamingKLargerThanStream: a budget larger than the stream
// returns every distinct record it can, not an error (S2).
func TestStreamingKLargerThanStream(t *testing.T) {
	const d = 4
	sel, err := NewSelector(Config{Classes: 1, Dim: d, K: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	emb := randRows(41, 10, d)
	labels := make([]int, 10)
	if err := sel.Push(emb, nil, labels); err != nil {
		t.Fatal(err)
	}
	res, st, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 || len(res.Selected) > 10 {
		t.Fatalf("selected %d of a 10-record stream", len(res.Selected))
	}
	seen := map[int]bool{}
	for _, s := range res.Selected {
		if s < 0 || s >= 10 {
			t.Fatalf("selected stream position %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("position %d selected twice", s)
		}
		seen[s] = true
	}
	if st.Records != 10 {
		t.Fatalf("stats records = %d, want 10", st.Records)
	}
}

// TestStreamingDegenerateEmbeddings: duplicate rows and all-zero rows
// must neither crash nor produce duplicate selections (S2).
func TestStreamingDegenerateEmbeddings(t *testing.T) {
	const n, d, k = 200, 4, 6
	emb := tensor.NewMatrix(n, d)
	labels := make([]int, n)
	// Rows 0..99: identical copies of one vector. Rows 100..199: zero.
	for i := 0; i < 100; i++ {
		row := emb.Row(i)
		row[0], row[1] = 0.5, -0.25
	}
	sel, err := NewSelector(Config{Classes: 1, Dim: d, K: k, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sel, emb, labels, 64)
	res, _, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected from a degenerate stream")
	}
	dup := map[int]bool{}
	for _, s := range res.Selected {
		if dup[s] {
			t.Fatalf("position %d selected twice", s)
		}
		dup[s] = true
	}
	var wsum float64
	for _, w := range res.Weights {
		wsum += float64(w)
	}
	if wsum < n*0.99 || wsum > n*1.01 {
		t.Fatalf("weights sum %.1f, want ≈ %d", wsum, n)
	}
}

// TestStreamingDegenerateLadder: a very coarse ε collapses the ladder
// to one or two rungs; selection must still function (S2).
func TestStreamingDegenerateLadder(t *testing.T) {
	const n, d = 300, 4
	emb, labels := clusteredEmb(55, n, d, 5, 1)
	sel, err := NewSelector(Config{Classes: 1, Dim: d, K: 1, Eps: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sel, emb, labels, 100)
	res, st, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d, want 1", len(res.Selected))
	}
	if st.ActiveLevels < 1 || st.ActiveLevels > 4 {
		t.Fatalf("active ladder levels = %d, want a degenerate 1..4", st.ActiveLevels)
	}
}

// TestStreamingFinishIdempotent: Finish is read-only — calling it twice
// yields identical results.
func TestStreamingFinishIdempotent(t *testing.T) {
	const n, d, classes, k = 600, 6, 3, 24
	emb, labels := clusteredEmb(91, n, d, 7, classes)
	sel, err := NewSelector(Config{Classes: classes, Dim: d, K: k, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sel, emb, labels, 200)
	r1, _, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Selected {
		if r1.Selected[i] != r2.Selected[i] || r1.Weights[i] != r2.Weights[i] {
			t.Fatalf("Finish not idempotent at %d", i)
		}
	}
}

// TestFinishRowsOnDemandMatchBlock: a pool past finishBlockMax computes
// each similarity row when it is read instead of as one GEMM block; the
// selection, weights and objective must keep every bit.
func TestFinishRowsOnDemandMatchBlock(t *testing.T) {
	const n, d, classes, k = 3000, 6, 3, 60
	emb, labels := clusteredEmb(93, n, d, 11, classes)
	sel, err := NewSelector(Config{Classes: classes, Dim: d, K: k, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sel, emb, labels, 256)
	want, _, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer func(prev int) { finishBlockMax = prev }(finishBlockMax)
	finishBlockMax = 0
	got, _, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Selected) == 0 || !slices.Equal(got.Selected, want.Selected) || !sameF32(got.Weights, want.Weights) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("on-demand rows select %v (objective %v), the block %v (objective %v)",
			got.Selected, got.Objective, want.Selected, want.Objective)
	}
}

// TestStreamingMemoryBudget: the planned state must fit the on-chip
// budget and equal what the selector then allocates, and an impossible
// budget must fail loudly at construction.
func TestStreamingMemoryBudget(t *testing.T) {
	for _, cfg := range []Config{
		{Classes: 10, Dim: 10, K: 500, Seed: 1},
		{Classes: 3, Dim: 7, K: 12, ClassCounts: []int{400, 0, 400}, Reservoir: 48},
		{Classes: 5, Dim: 4, K: 3, Eps: 3},
		{Classes: 2, Dim: 32, K: 64, MemBudget: 1 << 22},
	} {
		sel, err := NewSelector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, budget := sel.MemoryBytes(), sel.cfg.MemBudget; got > budget {
			t.Fatalf("%+v: state %d bytes exceeds on-chip budget %d", cfg, got, budget)
		}
		if _, planned, _ := planState(sel.cfg, sel.budgets); planned != float64(sel.MemoryBytes()) {
			t.Fatalf("%+v: planned %.0f bytes, allocated %d", cfg, planned, sel.MemoryBytes())
		}
	}
	if _, err := NewSelector(Config{Classes: 10, Dim: 10, K: 500, MemBudget: 4096, Seed: 1}); err == nil {
		t.Fatal("a 4 KB budget should be rejected")
	}
}

// TestNewSelectorSurvivesHostileConfigs walks every numeric Config field
// through zero, negative, huge and (for floats) non-finite values: each
// case returns an error or a selector within budget, never panics, and
// allocates under 1 MB when it errors.
func TestNewSelectorSurvivesHostileConfigs(t *testing.T) {
	base := Config{Classes: 4, Dim: 8, K: 40, Seed: 1}
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Config){
		"Classes=0":                   func(c *Config) { c.Classes = 0 },
		"Classes=-1":                  func(c *Config) { c.Classes = -1 },
		"Classes=1<<40":               func(c *Config) { c.Classes = 1 << 40 },
		"Classes=MaxInt":              func(c *Config) { c.Classes = math.MaxInt },
		"Dim=0":                       func(c *Config) { c.Dim = 0 },
		"Dim=-1":                      func(c *Config) { c.Dim = -1 },
		"Dim=1<<20":                   func(c *Config) { c.Dim = 1 << 20 },
		"Dim=MaxInt":                  func(c *Config) { c.Dim = math.MaxInt },
		"K=0":                         func(c *Config) { c.K = 0 },
		"K=-1":                        func(c *Config) { c.K = -1 },
		"K=1<<16, Reservoir=16":       func(c *Config) { c.Classes, c.K, c.Reservoir = 1, 1<<16, 16 },
		"K=MaxInt":                    func(c *Config) { c.K = math.MaxInt },
		"K=MaxInt, counts given":      func(c *Config) { c.K, c.ClassCounts = math.MaxInt, []int{10, 10, 10, 10} },
		"K=MaxInt, a count MaxInt":    func(c *Config) { c.K, c.ClassCounts = math.MaxInt, []int{math.MaxInt, 0, 0, 0} },
		"Reservoir=0":                 func(c *Config) { c.Reservoir = 0 },
		"Reservoir=-1":                func(c *Config) { c.Reservoir = -1 },
		"Reservoir=1<<20":             func(c *Config) { c.Reservoir = 1 << 20 },
		"Reservoir=MaxInt":            func(c *Config) { c.Reservoir = math.MaxInt },
		"MemBudget=0":                 func(c *Config) { c.MemBudget = 0 },
		"MemBudget=-1":                func(c *Config) { c.MemBudget = -1 },
		"MemBudget=MaxInt64":          func(c *Config) { c.MemBudget = math.MaxInt64 },
		"Eps=0":                       func(c *Config) { c.Eps = 0 },
		"Eps=-1":                      func(c *Config) { c.Eps = -1 },
		"Eps=MaxFloat64":              func(c *Config) { c.Eps = math.MaxFloat64 },
		"Eps=1e-300":                  func(c *Config) { c.Eps = 1e-300 },
		"Eps=NaN":                     func(c *Config) { c.Eps = nan },
		"Eps=+Inf":                    func(c *Config) { c.Eps = inf },
		"Eps=-Inf":                    func(c *Config) { c.Eps = -inf },
		"C0=0":                        func(c *Config) { c.C0 = 0 },
		"C0=-1":                       func(c *Config) { c.C0 = -1 },
		"C0=MaxFloat64":               func(c *Config) { c.C0 = math.MaxFloat64 },
		"C0=NaN":                      func(c *Config) { c.C0 = nan },
		"C0=+Inf":                     func(c *Config) { c.C0 = inf },
		"C0=-Inf":                     func(c *Config) { c.C0 = -inf },
		"ClassCounts all 0":           func(c *Config) { c.ClassCounts = []int{0, 0, 0, 0} },
		"ClassCounts -1":              func(c *Config) { c.ClassCounts = []int{-1, 5, 5, 5} },
		"ClassCounts MaxInt":          func(c *Config) { c.ClassCounts = []int{math.MaxInt, 0, 0, 0} },
		"ClassCounts sum past MaxInt": func(c *Config) { c.ClassCounts = []int{math.MaxInt, 1, 0, 0} },
		"ClassCounts short":           func(c *Config) { c.ClassCounts = []int{5} },
	}
	// Each case also resets a live selector, which must fail exactly
	// where NewSelector does, as cheaply, and keep its stream.
	live, err := NewSelector(base)
	if err != nil {
		t.Fatal(err)
	}
	emb, labels := clusteredEmb(3, 200, base.Dim, 4, base.Classes)
	pushAll(t, live, emb, labels, 100)
	stream, _, err := live.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		var sel *Selector
		var err, resetErr error
		got := allocatedBy(func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panic: %v", name, p)
				}
			}()
			sel, err = NewSelector(cfg)
		})
		switch {
		case err != nil && got >= 1<<20:
			t.Errorf("%s: allocated %d bytes before failing: %v", name, got, err)
		case err == nil && sel.MemoryBytes() > sel.cfg.MemBudget:
			t.Errorf("%s: state %d bytes exceeds budget %d", name, sel.MemoryBytes(), sel.cfg.MemBudget)
		}
		if err != nil {
			got = allocatedBy(func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s: Reset panic: %v", name, p)
					}
				}()
				resetErr = live.Reset(cfg)
			})
			if resetErr == nil || got >= 1<<20 {
				t.Errorf("%s: Reset returned %v after allocating %d bytes; NewSelector failed with %v", name, resetErr, got, err)
			}
			if res, _, err := live.Finish(); err != nil || !sameSelection(res, stream) {
				t.Errorf("%s: a failed Reset changed the live selector's stream", name)
			}
		}
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingPushAllocs: the steady-state per-record path must not
// allocate — a handful of per-batch closures are the only allowance.
func TestStreamingPushAllocs(t *testing.T) {
	const n, d, classes, k = 512, 8, 4, 32
	emb, labels := clusteredEmb(101, n, d, 6, classes)
	sel, err := NewSelector(Config{Classes: classes, Dim: d, K: k, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up scratch growth.
	for i := 0; i < 3; i++ {
		if err := sel.Push(emb, nil, labels); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := sel.Push(emb, nil, labels); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / n; perRecord > 0.05 {
		t.Fatalf("%.1f allocs per %d-record push (%.3f/record), want ≈ 0/record", allocs, n, perRecord)
	}
}

// TestStreamingRejectsBadInput covers the config and batch validation
// paths.
func TestStreamingRejectsBadInput(t *testing.T) {
	if _, err := NewSelector(Config{Classes: 0, Dim: 4, K: 2}); err == nil {
		t.Fatal("Classes=0 accepted")
	}
	if _, err := NewSelector(Config{Classes: 2, Dim: 4, K: 2, ClassCounts: []int{5}}); err == nil {
		t.Fatal("short ClassCounts accepted")
	}
	sel, err := NewSelector(Config{Classes: 2, Dim: 4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	emb := tensor.NewMatrix(3, 4)
	if err := sel.Push(emb, nil, []int{0, 1}); err == nil {
		t.Fatal("label/row mismatch accepted")
	}
	if err := sel.Push(emb, nil, []int{0, 1, 5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, _, err := sel.Finish(); err == nil {
		t.Fatal("Finish on an empty stream should fail")
	}
}

// streamResult pushes emb through sel in 150-row batches and returns
// its selection and stats.
func streamResult(t *testing.T, sel *Selector, emb *tensor.Matrix, labels []int) (selection.Result, Stats) {
	t.Helper()
	pushAll(t, sel, emb, labels, 150)
	res, st, err := sel.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// sameSelection reports whether two selections agree bit for bit.
func sameSelection(a, b selection.Result) bool {
	if !slices.Equal(a.Selected, b.Selected) || len(a.Weights) != len(b.Weights) ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return false
	}
	for i := range a.Weights {
		if math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// TestResetMatchesNewSelector: one selector Reset through a sequence of
// configs — K shrinking and growing, ClassCounts moving, a new seed and
// reservoir, more classes — finishes every stream with exactly the
// selection and stats of a fresh NewSelector under the same config.
func TestResetMatchesNewSelector(t *testing.T) {
	const n, d, classes = 900, 6, 3
	emb, labels := clusteredEmb(131, n, d, 8, classes)
	counts := []int{300, 300, 300}
	cfgs := []Config{
		{Classes: classes, Dim: d, K: 30, ClassCounts: counts, Seed: 5},
		{Classes: classes, Dim: d, K: 12, ClassCounts: counts, Seed: 5},
		{Classes: classes, Dim: d, K: 45, ClassCounts: []int{600, 200, 100}, Seed: 6},
		{Classes: classes, Dim: d, K: 45, ClassCounts: []int{0, 500, 400}, Seed: 6, Reservoir: 64},
		{Classes: classes + 2, Dim: d, K: 20, Seed: 7},
		{Classes: classes, Dim: d, K: 30, ClassCounts: counts, Seed: 5},
	}
	var sel *Selector
	for i, cfg := range cfgs {
		fresh, err := NewSelector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt := streamResult(t, fresh, emb, labels)
		if sel == nil {
			sel = fresh
			continue
		}
		if err := sel.Reset(cfg); err != nil {
			t.Fatalf("config %d: Reset: %v", i, err)
		}
		got, gotSt := streamResult(t, sel, emb, labels)
		if !sameSelection(got, want) {
			t.Fatalf("config %d: Reset selector chose %v, a fresh one %v", i, got.Selected, want.Selected)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("config %d: Reset selector stats %+v, a fresh one's %+v", i, gotSt, wantSt)
		}
	}
}

// TestResetRejectsHostileConfigs: a Reset that fails leaves the selector
// holding its stream — Finish still returns what it did — and a later
// valid Reset runs a stream as a fresh selector would.
func TestResetRejectsHostileConfigs(t *testing.T) {
	const n, d, classes = 600, 6, 3
	emb, labels := clusteredEmb(137, n, d, 6, classes)
	cfg := Config{Classes: classes, Dim: d, K: 24, Seed: 9}
	sel, err := NewSelector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := streamResult(t, sel, emb, labels)
	for _, bad := range []Config{
		{Classes: 0, Dim: d, K: 24},
		{Classes: classes, Dim: d, K: 24, ClassCounts: []int{5}},
		{Classes: classes, Dim: d, K: 500, MemBudget: 4096},
		{Classes: classes, Dim: d, K: 24, Eps: math.NaN()},
	} {
		if err := sel.Reset(bad); err == nil {
			t.Fatalf("Reset(%+v) succeeded", bad)
		}
		after, _, err := sel.Finish()
		if err != nil || !sameSelection(after, before) {
			t.Fatalf("after a failed Reset(%+v): Finish = %v, %v; want the stream's %v", bad, after.Selected, err, before.Selected)
		}
	}
	fresh, err := NewSelector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := streamResult(t, fresh, emb, labels)
	if err := sel.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got, _ := streamResult(t, sel, emb, labels); !sameSelection(got, want) {
		t.Fatalf("Reset after failures chose %v, a fresh selector %v", got.Selected, want.Selected)
	}
}
