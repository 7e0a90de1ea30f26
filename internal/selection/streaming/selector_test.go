package streaming

import (
	"math"
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
			row[j] += rng.NormFloat32() * 0.08
		}
		labels[i] = i % classes
	}
	return emb, labels
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

// TestStreamingWorkerInvariance: for a fixed seed the selection — and
// the sketch, when it runs — is bit-identical at any worker count,
// whatever the batch sizes and however the pool spreads the per-class
// sieve passes (S2).
func TestStreamingWorkerInvariance(t *testing.T) {
	const n, d, feat, classes, k = 1500, 6, 5, 4, 48
	emb, labels := clusteredEmb(77, n, d, 9, classes)
	x := randRows(78, n, feat)
	for i := range labels {
		// Uneven classes, so the class passes differ in length.
		if i%7 == 0 {
			labels[i] = 0
		}
	}
	type outcome struct {
		res    selection.Result
		rows   int
		buf    []float32
		total  float64
		shrink int
	}
	run := func(workers int, sketch bool, batches []int) outcome {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		cfg := Config{Classes: classes, Dim: d, K: k, Seed: 9, SketchEvery: -1}
		if sketch {
			cfg.SketchEvery, cfg.SketchRows, cfg.SketchDim = 3, 8, d*feat
		}
		sel, err := NewSelector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lo, b := 0, 0; lo < n; b++ {
			hi := lo + batches[b%len(batches)]
			if hi > n {
				hi = n
			}
			ev := tensor.Matrix{Rows: hi - lo, Cols: d, Data: emb.Data[lo*d : hi*d]}
			xv := tensor.Matrix{Rows: hi - lo, Cols: feat, Data: x.Data[lo*feat : hi*feat]}
			if err := sel.Push(&ev, &xv, labels[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		res, _, err := sel.Finish()
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{res: res}
		if sk := sel.Sketch(); sk != nil {
			out.rows, out.total, out.shrink = sk.rows, sk.total, sk.shrinks
			out.buf = append(out.buf, sk.buf.Data[:sk.rows*sk.dim]...)
		}
		return out
	}
	for _, sketch := range []bool{false, true} {
		for _, batches := range [][]int{{256}, {1, 97, 13, 400}} {
			want := run(1, sketch, batches)
			if len(want.res.Selected) == 0 || (sketch && want.shrink == 0) {
				t.Fatalf("sketch=%v batches=%v: nothing to compare (%d selected, %d shrinks)",
					sketch, batches, len(want.res.Selected), want.shrink)
			}
			for _, workers := range []int{2, 3, 7} {
				got := run(workers, sketch, batches)
				if !slices.Equal(got.res.Selected, want.res.Selected) || !sameF32(got.res.Weights, want.res.Weights) ||
					math.Float64bits(got.res.Objective) != math.Float64bits(want.res.Objective) {
					t.Fatalf("sketch=%v batches=%v: selection at %d workers differs from 1 worker", sketch, batches, workers)
				}
				if got.rows != want.rows || got.shrink != want.shrink ||
					math.Float64bits(got.total) != math.Float64bits(want.total) || !sameF32(got.buf, want.buf) {
					t.Fatalf("sketch=%v batches=%v: sketch state at %d workers differs from 1 worker", sketch, batches, workers)
				}
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

// TestStreamingMemoryBudget: the planned state must fit the on-chip
// budget, and an impossible budget must fail loudly at construction.
func TestStreamingMemoryBudget(t *testing.T) {
	sel, err := NewSelector(Config{Classes: 10, Dim: 10, K: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, budget := sel.MemoryBytes(), DefaultMemoryBudget(); got > budget {
		t.Fatalf("state %d bytes exceeds on-chip budget %d", got, budget)
	}
	if _, err := NewSelector(Config{Classes: 10, Dim: 10, K: 500, MemBudget: 4096, Seed: 1}); err == nil {
		t.Fatal("a 4 KB budget should be rejected")
	}
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
