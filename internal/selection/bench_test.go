package selection

import (
	"fmt"
	"testing"

	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// benchInstance builds a CIFAR-10-class-sized selection problem: 300
// candidates with 10-dimensional gradient embeddings, selecting 30 %.
func benchInstance(n, dim int) (*tensor.Matrix, []int) {
	r := tensor.NewRNG(1)
	emb := tensor.NewMatrix(n, dim)
	emb.FillNormal(r, 1)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	return emb, cand
}

func BenchmarkNaiveGreedy300(b *testing.B) {
	emb, cand := benchInstance(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NaiveGreedy(emb, cand, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyGreedy300(b *testing.B) {
	emb, cand := benchInstance(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LazyGreedy(emb, cand, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStochasticGreedy300(b *testing.B) {
	emb, cand := benchInstance(300, 10)
	r := tensor.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StochasticGreedy(emb, cand, 90, 0.1, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKCenters300(b *testing.B) {
	emb, cand := benchInstance(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KCenters(emb, cand, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionedSelection300(b *testing.B) {
	emb, cand := benchInstance(300, 10)
	r := tensor.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partitioned(emb, cand, 90, 16, r, LazyGreedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionedStochastic measures one class's partitioned
// stochastic-greedy selection at the class shapes of two end-to-end
// workloads: nessa_default's 40-row chunks and cluster_loss's 160-row
// chunks, both on the similarity tile.
func BenchmarkPartitionedStochastic(b *testing.B) {
	for _, shape := range []struct {
		name         string
		n, dim, k, m int
	}{
		{"nessa_default", 6000, 10, 2400, 16},
		{"cluster_loss", 4000, 10, 400, 16},
	} {
		b.Run(shape.name, func(b *testing.B) {
			emb, cand := benchInstance(shape.n, shape.dim)
			rng := tensor.NewRNG(5)
			sel := PartitionedMaximizer(shape.m, rng, StochasticMaximizer(0.1, rng))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel(emb, cand, shape.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStochasticGreedyChunk measures one partition chunk's
// stochastic-greedy selection on a warm Scratch at the chunk shapes of
// two end-to-end workloads: nessa_default's 40 rows (SubsetFrac 0.4)
// and cluster_loss's 160 (SubsetFrac 0.1), each picking m = 16 of
// dim-10 rows at ε = 0.1 — tile build, gain scans and assignment.
func BenchmarkStochasticGreedyChunk(b *testing.B) {
	for _, n := range []int{40, 160} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			emb, cand := benchInstance(n, 10)
			sc := new(Scratch)
			rng := tensor.NewRNG(5)
			sel := sc.StochasticMaximizer(0.1, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel(emb, cand, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFacilityGain measures one full gain scan (the innermost hot
// loop of every greedy maximizer) over a candidate pool large enough to
// span many reduction chunks, at 1 worker vs all cores.
func BenchmarkFacilityGain(b *testing.B) {
	emb, cand := benchInstance(8192, 64)
	for _, w := range []int{1, 0} { // 0 = NumCPU
		name := "workers=1"
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			parallel.SetDefaultWorkers(w)
			defer parallel.SetDefaultWorkers(0)
			f := newFacility(new(Scratch), emb, cand)
			best := make([]float32, len(cand))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.gain(i%len(cand), best)
			}
		})
	}
}

// BenchmarkPerClassParallel measures the full CRAIG per-class
// facility-location selection (the epoch selection step) with the
// class fan-out and chunked kernels at 1 worker vs all cores.
func BenchmarkPerClassParallel(b *testing.B) {
	const classes, perClass, dim = 10, 600, 32
	emb, _ := benchInstance(classes*perClass, dim)
	cls := make([][]int, classes)
	for i := 0; i < classes*perClass; i++ {
		cls[i%classes] = append(cls[i%classes], i)
	}
	for _, w := range []int{1, 0} {
		name := "workers=1"
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			parallel.SetDefaultWorkers(w)
			defer parallel.SetDefaultWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := PerClassWith(emb, cls, classes*perClass/10, func(ci int) Maximizer {
					return StochasticMaximizer(0.1, ClassStream(1, ci))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
