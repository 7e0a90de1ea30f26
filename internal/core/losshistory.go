package core

// lossHistory keeps the most recent `window` observed losses per
// sample — the record behind subset biasing (§3.2.2): "We record
// losses of the current training examples from the most recent five
// epochs, mark the samples with small values, and drop the marked
// samples from the training set every twenty epochs."
type lossHistory struct {
	window int
	buf    []float32 // n rings of window losses: sample idx owns buf[idx*window:][:window]
	pos    []int
	count  []int // a sample has a recorded loss exactly when count > 0
}

func newLossHistory(n, window int) *lossHistory {
	if window <= 0 {
		window = 1
	}
	return &lossHistory{
		window: window,
		buf:    make([]float32, n*window),
		pos:    make([]int, n),
		count:  make([]int, n),
	}
}

// ring returns sample idx's ring of recent losses.
func (h *lossHistory) ring(idx int) []float32 {
	return h.buf[idx*h.window : (idx+1)*h.window]
}

// record stores one observed loss per listed sample.
func (h *lossHistory) record(indices []int, losses []float32) {
	for i, idx := range indices {
		h.buf[idx*h.window+h.pos[idx]] = losses[i]
		h.pos[idx] = (h.pos[idx] + 1) % h.window
		if h.count[idx] < h.window {
			h.count[idx]++
		}
	}
}

// mean reports the mean of the recorded losses for sample idx and
// whether any observation exists.
func (h *lossHistory) mean(idx int) (float32, bool) {
	c := h.count[idx]
	if c == 0 {
		return 0, false
	}
	var sum float32
	for _, l := range h.ring(idx)[:c] {
		sum += l
	}
	return sum / float32(c), true
}

// learned reports whether the sample's full recent window sits below
// the threshold — i.e. the model has confidently learned it. Samples
// with an incomplete window are never marked: the paper gives the
// model "sufficient time to learn all the data points".
func (h *lossHistory) learned(idx int, threshold float32) bool {
	if h.count[idx] < h.window {
		return false
	}
	m, ok := h.mean(idx)
	return ok && m < threshold
}
