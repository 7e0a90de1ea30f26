package selection

import (
	"fmt"

	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// GreeDi runs the two-round distributed submodular maximization of
// Mirzasoleiman et al. 2013 ("Distributed Submodular Maximization:
// Identifying Representative Elements in Massive Data" — paper §3.1's
// cited path to scaling selection across machines or SmartSSDs):
//
//	round 1: partition the candidates across shards and greedily select
//	         k medoids on each shard in parallel;
//	round 2: pool the shard selections and greedily select the final k
//	         from the union.
//
// The result carries cluster weights over the full candidate set. With
// shards = 1 it degenerates to single-machine greedy.
func GreeDi(emb *tensor.Matrix, cand []int, k, shards int, rng *tensor.RNG, inner Maximizer) (Result, error) {
	k, err := validate(emb, cand, k)
	if err != nil {
		return Result{}, err
	}
	if shards <= 0 {
		return Result{}, fmt.Errorf("selection: shards must be positive, got %d", shards)
	}
	if shards > len(cand) {
		shards = len(cand)
	}
	if rng == nil {
		//nessa:seed-ok documented deterministic fallback for a nil RNG; callers wanting replay pass a seeded stream
		rng = tensor.NewRNG(1)
	}

	shuffled := append([]int(nil), cand...)
	rng.Shuffle(shuffled)

	// Round 1: per-shard greedy on the worker pool (each shard is an
	// independent SmartSSD in the scaled deployment). Each task writes
	// its own slot and the merge below walks shards in order, so the
	// pooled set is deterministic for any worker count.
	//
	// NOTE: inner runs concurrently across shards, so it must not share
	// mutable state (use stateless maximizers, or per-shard streams).
	type shardOut struct {
		sel []int
		err error
	}
	outs := make([]shardOut, shards)
	var tasks []func()
	for s := 0; s < shards; s++ {
		lo := s * len(shuffled) / shards
		hi := (s + 1) * len(shuffled) / shards
		if lo == hi {
			continue
		}
		s, chunk := s, shuffled[lo:hi]
		tasks = append(tasks, func() {
			r, err := inner(emb, chunk, k)
			outs[s] = shardOut{sel: r.Selected, err: err}
		})
	}
	parallel.Default().Run(tasks)

	var pooled []int
	for s, o := range outs {
		if o.err != nil {
			return Result{}, fmt.Errorf("selection: shard %d: %w", s, o.err)
		}
		pooled = append(pooled, o.sel...)
	}
	if len(pooled) == 0 {
		return Result{}, fmt.Errorf("selection: no shard produced candidates")
	}

	// Round 2: final greedy over the pooled shard selections.
	final, err := inner(emb, pooled, k)
	if err != nil {
		return Result{}, fmt.Errorf("selection: merge round: %w", err)
	}

	// Reassign weights over the FULL candidate set (round-2 weights
	// only cover the pooled medoids).
	f := newDirectFacility(emb, cand)
	pos := make(map[int]int, len(final.Selected)) // global idx -> selected slot
	localSel := make([]int, 0, len(final.Selected))
	for si, g := range final.Selected {
		pos[g] = si
		_ = si
	}
	for j, g := range cand {
		if _, ok := pos[g]; ok {
			localSel = append(localSel, j)
		}
	}
	res := Result{
		Selected: final.Selected,
		Weights:  make([]float32, len(final.Selected)),
	}
	slot := make([]int32, len(cand))
	f.pool.ForChunks(len(cand), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bestSlot, bestS := 0, float32(-1)
			for _, j := range localSel {
				if s := f.sim(i, j); s > bestS {
					bestS = s
					bestSlot = pos[cand[j]]
				}
			}
			slot[i] = int32(bestSlot)
		}
	})
	for _, s := range slot {
		res.Weights[s]++
	}
	res.Objective = Objective(emb, cand, res.Selected)
	return res, nil
}
