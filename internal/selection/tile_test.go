package selection

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nessa/internal/cpu"
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

// buildTileRef is the tile builder the GEMM replaced, kept as the
// reference buildTile is held to: it computes the upper triangle four
// output columns per pass, one float32 accumulator per column adding
// the rounded products in ascending k from +0, applies simOf, and
// mirrors the triangle into the lower one.
func buildTileRef(tile, pack, norms []float32, dim int, c0 float32) {
	n := len(norms)
	for i := 0; i < n; i++ {
		a := pack[i*dim : (i+1)*dim]
		row := tile[i*n : (i+1)*n]
		ni := norms[i]
		j := i
		for ; j+4 <= n; j += 4 {
			b0 := pack[j*dim:][:len(a)]
			b1 := pack[(j+1)*dim:][:len(a)]
			b2 := pack[(j+2)*dim:][:len(a)]
			b3 := pack[(j+3)*dim:][:len(a)]
			var s0, s1, s2, s3 float32
			for k, x := range a {
				s0 += float32(x * b0[k])
				s1 += float32(x * b1[k])
				s2 += float32(x * b2[k])
				s3 += float32(x * b3[k])
			}
			row[j] = simOf(c0, ni, norms[j], s0)
			row[j+1] = simOf(c0, ni, norms[j+1], s1)
			row[j+2] = simOf(c0, ni, norms[j+2], s2)
			row[j+3] = simOf(c0, ni, norms[j+3], s3)
		}
		for ; j < n; j++ {
			b := pack[j*dim:][:len(a)]
			var s float32
			for k, x := range a {
				s += float32(x * b[k])
			}
			row[j] = simOf(c0, ni, norms[j], s)
		}
	}
	for i := 1; i < n; i++ {
		row := tile[i*n : i*n+i]
		for j := range row {
			row[j] = tile[j*n+i]
		}
	}
}

// TestTileMatchesScalarReference holds buildTile — one MatMulTransB
// plus the simOf epilogue — to buildTileRef bit for bit, NaN payloads
// aside (sameBits), for n 1–70 and dim 1–33: on rows with NaN, ±Inf,
// ±0, denormals and overflowing values, with norms that are the rows'
// own or hostile too and a c0 of either sign, and on all-zero rows
// (c0 = 1), under the AVX2 epilogue and with useAVX2 cleared.
func TestTileMatchesScalarReference(t *testing.T) {
	dimStep := 1
	if raceEnabled {
		dimStep = 8
	}
	for _, avx := range []bool{false, true} {
		if avx && !cpu.AVX2 {
			continue
		}
		prev := useAVX2
		useAVX2 = avx
		for n := 1; n <= 70; n++ {
			for dim := 1; dim <= 33; dim += dimStep {
				rng := tensor.NewRNG(uint64(100*n + dim))
				for _, kind := range []string{"hostile", "zero"} {
					pack := tensor.NewMatrix(n, dim)
					norms := make([]float32, n)
					c0 := float32(1)
					if kind == "hostile" {
						for i := range pack.Data {
							pack.Data[i] = hostileF32(rng, 15, 1)
						}
						for i := range norms {
							if rng.Intn(4) == 0 {
								norms[i] = hostileF32(rng, 3, 4)
							} else {
								norms[i] = tensor.Dot(pack.Row(i), pack.Row(i))
							}
						}
						c0 = hostileF32(rng, 7, 64)
					}
					want := make([]float32, n*n)
					buildTileRef(want, pack.Data, norms, dim, c0)
					got := tensor.NewMatrix(n, n)
					for i := range got.Data {
						got.Data[i] = float32(math.NaN())
					}
					buildTile(got, pack, norms, c0)
					for i, w := range want {
						g := got.Data[i]
						if !sameBits(g, w) {
							useAVX2 = prev
							t.Fatalf("avx=%v %s n=%d dim=%d c0=%v: tile[%d][%d] = %v (%#x), scalar %v (%#x)",
								avx, kind, n, dim, c0, i/n, i%n, g, math.Float32bits(g), w, math.Float32bits(w))
						}
					}
				}
			}
		}
		useAVX2 = prev
	}
}

// sameBits reports whether two similarities agree bit for bit, or are
// both NaN. A NaN's payload is the one thing the tile builders may
// differ in: x86 passes on the first operand's NaN when both are NaN,
// and the GEMM and the scalar loop order a product's operands, and gc
// a commutative add's, differently. No comparison a maximizer makes can
// see a payload.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}
