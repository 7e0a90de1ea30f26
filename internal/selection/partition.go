package selection

import (
	"fmt"

	"nessa/internal/tensor"
)

// Partitioned implements the dataset-partitioning optimization of
// paper §3.2.3: to keep each selection working set inside the FPGA's
// 4.32 MB on-chip memory, the candidates are randomly split into
// ⌈k/m⌉ chunks and m medoids are selected from each chunk, yielding k
// total without ever holding more than one chunk's embeddings on chip.
//
// m is the per-chunk selection count (the paper uses the mini-batch
// size). Weights still sum to the candidate count because each chunk's
// medoid weights cover exactly that chunk.
func Partitioned(emb *tensor.Matrix, cand []int, k, m int, rng *tensor.RNG, maximize Maximizer) (Result, error) {
	return withScratch(func(sc *Scratch) (Result, error) {
		return sc.partitioned(emb, cand, k, m, rng, maximize)
	})
}

// PartitionedMaximizer is the package's PartitionedMaximizer on sc: the
// partition shuffle and the merged result live in sc. inner may be one
// of sc's own maximizers, whose buffers are disjoint from these.
func (sc *Scratch) PartitionedMaximizer(m int, rng *tensor.RNG, inner Maximizer) Maximizer {
	return func(emb *tensor.Matrix, cand []int, k int) (Result, error) {
		return sc.partitioned(emb, cand, k, m, rng, inner)
	}
}

func (sc *Scratch) partitioned(emb *tensor.Matrix, cand []int, k, m int, rng *tensor.RNG, maximize Maximizer) (Result, error) {
	if k <= 0 || m <= 0 {
		return Result{}, fmt.Errorf("selection: k (%d) and m (%d) must be positive", k, m)
	}
	if len(cand) == 0 {
		return Result{}, fmt.Errorf("selection: no candidates")
	}
	if k > len(cand) {
		k = len(cand)
	}
	if m > k {
		m = k
	}
	if rng == nil {
		// A fixed stream keeps a nil-RNG call deterministic; replaying callers pass a seeded one.
		rng = tensor.NewRNG(1)
	}

	// Random partition.
	sc.shuffled = append(sc.shuffled[:0], cand...)
	shuffled := sc.shuffled
	rng.Shuffle(shuffled)
	chunks := (k + m - 1) / m
	if chunks > len(shuffled) {
		chunks = len(shuffled)
	}

	merged := Result{Selected: sc.merged.Selected[:0], Weights: sc.merged.Weights[:0]}
	remaining := k
	for c := 0; c < chunks && remaining > 0; c++ {
		lo := c * len(shuffled) / chunks
		hi := (c + 1) * len(shuffled) / chunks
		chunk := shuffled[lo:hi]
		if len(chunk) == 0 {
			continue
		}
		take := m
		if take > remaining {
			take = remaining
		}
		r, err := maximize(emb, chunk, take)
		if err != nil {
			return Result{}, fmt.Errorf("selection: chunk %d: %w", c, err)
		}
		merged.Selected = append(merged.Selected, r.Selected...)
		merged.Weights = append(merged.Weights, r.Weights...)
		merged.Objective += r.Objective
		remaining -= len(r.Selected)
	}
	sc.merged = merged
	return merged, nil
}

// ChunkBytes reports the on-chip working-set size of one partition
// chunk: chunkLen embeddings of dim float32 components. NeSSA sizes m
// so this fits the FPGA's on-chip memory.
func ChunkBytes(chunkLen, dim int) int64 {
	return int64(chunkLen) * int64(dim) * 4
}

// PartitionedMaximizer wraps Partitioned as a Maximizer with fixed m,
// so it can slot into PerClass — giving the full NeSSA "SB+PA"
// pipeline of Table 3.
func PartitionedMaximizer(m int, rng *tensor.RNG, inner Maximizer) Maximizer {
	return func(emb *tensor.Matrix, cand []int, k int) (Result, error) {
		return Partitioned(emb, cand, k, m, rng, inner)
	}
}
