package streaming

import (
	"nessa/internal/selection"
	"nessa/internal/tensor"
)

// Maximizer adapts the streaming selector to the batch
// selection.Maximizer contract, so selection.PerClassWith (and
// therefore core.Run) can select through the sieve without ever
// holding a class's full similarity structure. The embedding matrix
// is streamed through the sieve in fixed-size chunks; c0 is computed
// as the batch path does (4·max‖g‖² over the candidates) so the two
// selectors optimize the same objective. opts with zero values inherit
// the streaming defaults.
func Maximizer(opts Config) selection.Maximizer {
	return func(emb *tensor.Matrix, cand []int, k int) (selection.Result, error) {
		cfg := opts
		cfg.Classes = 1
		cfg.Dim = emb.Cols
		cfg.K = k
		cfg.ClassCounts = []int{len(cand)}
		if cfg.C0 == 0 {
			var maxSq float32
			for _, gi := range cand {
				row := emb.Row(gi)
				if sq := tensor.Dot(row, row); sq > maxSq {
					maxSq = sq
				}
			}
			cfg.C0 = 4 * float64(maxSq)
			if cfg.C0 == 0 {
				cfg.C0 = 1 // degenerate all-zero embeddings
			}
		}
		sel, err := NewSelector(cfg)
		if err != nil {
			return selection.Result{}, err
		}
		const chunk = 4096
		batch := tensor.NewMatrix(chunk, emb.Cols)
		labels := make([]int, chunk)
		for lo := 0; lo < len(cand); lo += chunk {
			hi := lo + chunk
			if hi > len(cand) {
				hi = len(cand)
			}
			m := hi - lo
			view := tensor.Matrix{Rows: m, Cols: emb.Cols, Data: batch.Data[:m*emb.Cols]}
			tensor.GatherRows(&view, emb, cand[lo:hi])
			if err := sel.Push(&view, nil, labels[:m]); err != nil {
				return selection.Result{}, err
			}
		}
		res, _, err := sel.Finish()
		if err != nil {
			return selection.Result{}, err
		}
		// Stream position p was cand[p]: translate to the caller's
		// global index space, as batch maximizers do.
		for i, p := range res.Selected {
			res.Selected[i] = cand[p]
		}
		return res, nil
	}
}
