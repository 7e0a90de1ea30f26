package streaming

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nessa/internal/tensor"
)

// refPush is the exhaustive sieve step: every rung with room whose need
// the singleton value clears scans the whole reservoir, with no
// saturation bound. It is the oracle the pruned classSieve.push is
// held to, bit for bit.
func refPush(cs *classSieve, id int, emb []float32, sims []float32, v float64) {
	if cs.bakLen < cs.kc {
		cs.bakIDs[cs.bakLen] = id
		cs.bakVals[cs.bakLen] = v
		copy(cs.bakEmb[cs.bakLen*cs.dim:(cs.bakLen+1)*cs.dim], emb)
		cs.bakLen++
		if cs.bakLen == cs.kc {
			cs.bakMin = 0
			for i := 1; i < cs.bakLen; i++ {
				if cs.bakVals[i] < cs.bakVals[cs.bakMin] {
					cs.bakMin = i
				}
			}
		}
	} else if v > cs.bakVals[cs.bakMin] {
		cs.bakIDs[cs.bakMin] = id
		cs.bakVals[cs.bakMin] = v
		copy(cs.bakEmb[cs.bakMin*cs.dim:(cs.bakMin+1)*cs.dim], emb)
		for i := 0; i < cs.bakLen; i++ {
			if cs.bakVals[i] < cs.bakVals[cs.bakMin] {
				cs.bakMin = i
			}
		}
	}
	if v > cs.m {
		cs.m = v
		cs.updateWindow()
	}
	for _, lv := range cs.levels {
		if lv.count == cs.kc {
			continue
		}
		need := (float64(lv.tau/2) - lv.f) / float64(cs.kc-lv.count)
		if need < 1e-12 {
			need = 1e-12
		}
		if v < need {
			continue
		}
		var gain float64
		for i, s := range sims {
			if d := s - lv.best[i]; d > 0 {
				gain += float64(d)
			}
		}
		if gain < need {
			continue
		}
		lv.ids[lv.count] = id
		copy(lv.emb[lv.count*cs.dim:(lv.count+1)*cs.dim], emb)
		lv.count++
		lv.f += gain
		for i, s := range sims {
			if s > lv.best[i] {
				lv.best[i] = s
			}
		}
	}
}

// refBatch is the exhaustive counterpart of Selector.Push: per-class similarity matrices allocated fresh, one serial
// sieve pass in global stream order through refPush, then every
// class's staged reservoir replacements.
func refBatch(s *Selector, emb *tensor.Matrix, labels []int) {
	classes := s.cfg.Classes
	rows := make([][]int, classes)
	for r, y := range labels {
		rows[y] = append(rows[y], r)
	}
	gather := make([]*tensor.Matrix, classes)
	sims := make([]*tensor.Matrix, classes)
	rawV := make([][]float64, classes)
	for ci, cs := range s.sieves {
		if cs == nil || len(rows[ci]) == 0 {
			continue
		}
		cs.prefill = 0
		for _, r := range rows[ci] {
			if cs.resCount == cs.rcap {
				break
			}
			cs.prefillReservoir(emb.Row(r))
			cs.prefill++
		}
		m := len(rows[ci])
		gather[ci] = tensor.NewMatrix(m, cs.dim)
		tensor.GatherRows(gather[ci], emb, rows[ci])
		sims[ci] = tensor.NewMatrix(m, cs.resCount)
		resView := tensor.Matrix{Rows: cs.resCount, Cols: cs.dim, Data: cs.res.Data[:cs.resCount*cs.dim]}
		tensor.MatMulTransB(sims[ci], gather[ci], &resView)
		rawV[ci] = make([]float64, m)
		for i := 0; i < m; i++ {
			g := gather[ci].Row(i)
			na := tensor.Dot(g, g)
			row := sims[ci].Row(i)
			var v float64
			for t, dot := range row {
				sim := cs.c0 - na - cs.resNorm[t] + 2*dot
				if sim < 0 {
					sim = 0
				}
				row[t] = sim
				v += float64(sim)
			}
			rawV[ci][i] = v
		}
	}
	cursor := make([]int, classes)
	for r, ci := range labels {
		cs := s.sieves[ci]
		if cs == nil {
			continue
		}
		cur := cursor[ci]
		cursor[ci]++
		cs.seen++
		row := gather[ci].Row(cur)
		refPush(cs, s.seen+r, row, sims[ci].Row(cur), rawV[ci][cur])
		if cur >= cs.prefill {
			cs.offerReservoir(row)
		}
	}
	for _, cs := range s.sieves {
		if cs != nil {
			cs.applyPending()
		}
	}
	s.seen += len(labels)
}

func sameF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffSieves reports the first place two class sieves differ, or "".
func diffSieves(got, want *classSieve) string {
	switch {
	case got.seen != want.seen:
		return fmt.Sprintf("seen %d vs %d", got.seen, want.seen)
	case math.Float64bits(got.m) != math.Float64bits(want.m):
		return fmt.Sprintf("m %v vs %v", got.m, want.m)
	case got.resCount != want.resCount || !sameF32(got.res.Data, want.res.Data) || !sameF32(got.resNorm, want.resNorm):
		return "reservoir"
	case got.pendLen != 0 || want.pendLen != 0:
		return "pending replacements left after a batch"
	case got.bakLen != want.bakLen || got.bakMin != want.bakMin || !slices.Equal(got.bakIDs, want.bakIDs) ||
		!sameF64(got.bakVals, want.bakVals) || !sameF32(got.bakEmb, want.bakEmb):
		return "backup set"
	case len(got.levels) != len(want.levels):
		return fmt.Sprintf("%d live rungs vs %d", len(got.levels), len(want.levels))
	}
	for li, g := range got.levels {
		w := want.levels[li]
		switch {
		case g.j != w.j || math.Float64bits(g.tau) != math.Float64bits(w.tau):
			return fmt.Sprintf("rung %d: j/tau %d/%v vs %d/%v", li, g.j, g.tau, w.j, w.tau)
		case g.count != w.count:
			return fmt.Sprintf("rung %d (j=%d): count %d vs %d", li, g.j, g.count, w.count)
		case !slices.Equal(g.ids[:g.count], w.ids[:w.count]):
			return fmt.Sprintf("rung %d (j=%d): ids %v vs %v", li, g.j, g.ids[:g.count], w.ids[:w.count])
		case math.Float64bits(g.f) != math.Float64bits(w.f):
			return fmt.Sprintf("rung %d (j=%d): f %v vs %v", li, g.j, g.f, w.f)
		case !sameF32(g.best, w.best):
			return fmt.Sprintf("rung %d (j=%d): best", li, g.j)
		case !sameF32(g.emb[:g.count*got.dim], w.emb[:w.count*want.dim]):
			return fmt.Sprintf("rung %d (j=%d): buffered embeddings", li, g.j)
		}
	}
	return ""
}

// TestSievePruneMatchesExhaustive drives the production selector and
// the exhaustive reference in lock-step over streams built to stress
// the saturation bound, and requires identical sieve state after every
// batch and an identical selection at the end.
func TestSievePruneMatchesExhaustive(t *testing.T) {
	const d = 6
	clustered := func(seed uint64, n, classes int) (*tensor.Matrix, []int) {
		return clusteredEmb(seed, n, d, 7, classes)
	}
	scaled := func(emb *tensor.Matrix, by float32) *tensor.Matrix {
		for i := range emb.Data {
			emb.Data[i] *= by
		}
		return emb
	}
	cases := []struct {
		name    string
		cfg     Config
		stream  func() (*tensor.Matrix, []int)
		batches []int // cycled; ragged on purpose
		// minPruned is the share of rung visits the bound must skip, so
		// the comparison cannot pass with a prune that never fires.
		minPruned float64
	}{
		{
			name: "clustered, three classes, replacements every batch",
			cfg:  Config{Classes: 3, Dim: d, K: 30, Reservoir: 24, Seed: 3},
			stream: func() (*tensor.Matrix, []int) {
				return clustered(11, 3000, 3)
			},
			batches: []int{257, 64, 500},
		},
		{
			name: "exact duplicates",
			cfg:  Config{Classes: 2, Dim: d, K: 12, Reservoir: 32, Seed: 5},
			stream: func() (*tensor.Matrix, []int) {
				emb, labels := clustered(12, 900, 2)
				for i := 4; i < emb.Rows; i++ {
					copy(emb.Row(i), emb.Row(i%4))
				}
				return emb, labels
			},
			batches: []int{100, 33},
		},
		{
			name: "zero-norm rows",
			cfg:  Config{Classes: 2, Dim: d, K: 10, Reservoir: 20, Seed: 7},
			stream: func() (*tensor.Matrix, []int) {
				emb, labels := clustered(13, 800, 2)
				for i := 0; i < emb.Rows; i++ {
					if i%3 != 0 {
						for j := range emb.Row(i) {
							emb.Row(i)[j] = 0
						}
					}
				}
				return emb, labels
			},
			batches: []int{90, 41},
		},
		{
			// ‖g‖² ≈ 600 against C0/4 = 3: nearly every similarity clamps
			// to zero and the few that survive are differences of large
			// numbers, so they overshoot C0 by rounding.
			name: "norms far above C0/4, custom C0",
			cfg:  Config{Classes: 2, Dim: d, K: 16, C0: 12, Reservoir: 40, Seed: 9},
			stream: func() (*tensor.Matrix, []int) {
				emb, labels := clustered(14, 1500, 2)
				scaled(emb, 40)
				for i := 10; i < emb.Rows; i += 2 {
					copy(emb.Row(i), emb.Row(i%10)) // duplicates keep some similarities alive
				}
				return emb, labels
			},
			batches: []int{128, 77},
		},
		{
			// Every record sits within 1e-3 of one vector of norm² ≈ 6e4,
			// so each similarity is C0 plus rounding noise of the order of
			// ulp(6e4) ≈ 0.004: most coverage values land above C0 and a
			// ceiling of C0 itself would put n·C0 − f below zero.
			name: "near-duplicates of one huge vector, similarities above C0",
			cfg:  Config{Classes: 1, Dim: d, K: 10, C0: 1, Reservoir: 32, Seed: 27},
			stream: func() (*tensor.Matrix, []int) {
				emb, labels := clustered(28, 1200, 1)
				scaled(emb, 0.01)
				for i := 0; i < emb.Rows; i++ {
					for j, big := range []float32{97, -113, 84, 120, -76, 101} {
						emb.Row(i)[j] += big
					}
				}
				return emb, labels
			},
			batches: []int{150, 64},
		},
		{
			name: "tiny embeddings, saturated from the first record",
			cfg:  Config{Classes: 1, Dim: d, K: 20, Reservoir: 48, Seed: 15},
			stream: func() (*tensor.Matrix, []int) {
				emb, labels := clustered(16, 2000, 1)
				return scaled(emb, 1e-3), labels
			},
			batches:   []int{200},
			minPruned: 0.5,
		},
		{
			name: "reservoir larger than the class",
			cfg:  Config{Classes: 2, Dim: d, K: 8, Reservoir: 64, Seed: 17},
			stream: func() (*tensor.Matrix, []int) {
				return clustered(18, 50, 2)
			},
			batches: []int{9},
		},
		{
			name: "one-row batches",
			cfg:  Config{Classes: 2, Dim: d, K: 10, Reservoir: 16, Seed: 19},
			stream: func() (*tensor.Matrix, []int) {
				return clustered(20, 300, 2)
			},
			batches: []int{1},
		},
		{
			name: "prefill straddling batches, a class with no budget",
			cfg:  Config{Classes: 3, Dim: d, K: 12, ClassCounts: []int{400, 0, 400}, Reservoir: 48, Seed: 21},
			stream: func() (*tensor.Matrix, []int) {
				return clustered(22, 1200, 3)
			},
			batches: []int{7, 31, 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prod, err := NewSelector(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSelector(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			emb, labels := tc.stream()
			for lo, b := 0, 0; lo < emb.Rows; b++ {
				hi := lo + tc.batches[b%len(tc.batches)]
				if hi > emb.Rows {
					hi = emb.Rows
				}
				view := tensor.Matrix{Rows: hi - lo, Cols: d, Data: emb.Data[lo*d : hi*d]}
				if err := prod.Push(&view, nil, labels[lo:hi]); err != nil {
					t.Fatal(err)
				}
				refBatch(ref, &view, labels[lo:hi])
				for ci := range prod.sieves {
					if (prod.sieves[ci] == nil) != (ref.sieves[ci] == nil) {
						t.Fatalf("class %d: sieve present in one selector only", ci)
					}
					if prod.sieves[ci] == nil {
						continue
					}
					if diff := diffSieves(prod.sieves[ci], ref.sieves[ci]); diff != "" {
						t.Fatalf("after rows [%d,%d), class %d: pruned vs exhaustive: %s", lo, hi, ci, diff)
					}
				}
				lo = hi
			}
			got, st, err := prod.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Selected, want.Selected) || !sameF32(got.Weights, want.Weights) ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatal("pruned and exhaustive sieves finished with different selections")
			}
			if st.RungScans+st.RungPruned > st.RungVisits || st.RungAccepts > st.RungScans {
				t.Fatalf("inconsistent ladder counters: %+v", st)
			}
			if float64(st.RungPruned) < tc.minPruned*float64(st.RungVisits) {
				t.Fatalf("the bound skipped %d of %d rung visits, want at least %.0f %%",
					st.RungPruned, st.RungVisits, 100*tc.minPruned)
			}
		})
	}
}
