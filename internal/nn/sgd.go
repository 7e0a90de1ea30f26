package nn

import (
	"fmt"

	"nessa/internal/tensor"
)

// SGDConfig mirrors the training hyperparameters of paper §4.1:
// initial learning rate 0.1 divided by 5 at the 60th, 120th, and 160th
// of 200 epochs, weight decay 5e-4, Nesterov momentum 0.9.
type SGDConfig struct {
	LR          float32 // initial learning rate
	Momentum    float32 // Nesterov momentum coefficient
	WeightDecay float32 // L2 weight decay
}

// PaperSGD returns the exact hyperparameters from paper §4.1.
func PaperSGD() SGDConfig {
	return SGDConfig{LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4}
}

// SGD is a stochastic gradient descent optimizer with Nesterov
// momentum and decoupled-into-gradient L2 weight decay, matching the
// paper's training recipe.
type SGD struct {
	cfg SGDConfig
	lr  float32
	vW  []*tensor.Matrix
	vB  [][]float32
}

// NewSGD builds an optimizer for model m.
func NewSGD(m *MLP, cfg SGDConfig) *SGD {
	if cfg.LR <= 0 {
		panic(fmt.Sprintf("nn: non-positive learning rate %v", cfg.LR))
	}
	s := &SGD{cfg: cfg, lr: cfg.LR}
	for _, l := range m.Layers {
		s.vW = append(s.vW, tensor.NewMatrix(l.W.Rows, l.W.Cols))
		s.vB = append(s.vB, make([]float32, len(l.B)))
	}
	return s
}

// LR reports the current learning rate.
func (s *SGD) LR() float32 { return s.lr }

// SetLR overrides the current learning rate (used by schedules).
func (s *SGD) SetLR(lr float32) {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: non-positive learning rate %v", lr))
	}
	s.lr = lr
}

// Step applies one Nesterov-momentum update to m using gradients g.
//
//	v ← μ·v − lr·(g + wd·θ)
//	θ ← θ + μ·v − lr·(g + wd·θ)   (Nesterov look-ahead form)
func (s *SGD) Step(m *MLP, g *Grads) {
	if len(m.Layers) != len(s.vW) {
		panic("nn: SGD.Step model/optimizer layer mismatch")
	}
	mu := s.cfg.Momentum
	wd := s.cfg.WeightDecay
	for i, l := range m.Layers {
		v := s.vW[i]
		gw := g.W[i]
		for k := range l.W.Data {
			// Each float32(x*y) rounds a product before the add or
			// subtract that takes it. The spec lets gc fuse a product
			// into a later add, across statements too, and only an
			// explicit conversion forbids it; fused, the update would
			// differ between architectures.
			lg := float32(s.lr * (gw.Data[k] + float32(wd*l.W.Data[k])))
			vNew := float32(mu*v.Data[k]) - lg
			v.Data[k] = vNew
			l.W.Data[k] += float32(mu*vNew) - lg // Nesterov look-ahead reuses the updated velocity
		}
		vb := s.vB[i]
		gb := g.B[i]
		for k := range l.B {
			lg := float32(s.lr * gb[k]) // no weight decay on biases, standard practice
			vNew := float32(mu*vb[k]) - lg
			vb[k] = vNew
			l.B[k] += float32(mu*vNew) - lg
		}
	}
}

// StepSchedule is the paper's learning-rate schedule: the LR is divided
// by Factor at each listed milestone epoch. Milestones are expressed as
// fractions of the total epoch budget so the same schedule applies to
// scaled-down runs (the paper uses 60/120/160 of 200 → 0.3, 0.6, 0.8).
type StepSchedule struct {
	BaseLR     float32
	Factor     float32
	Milestones []float64 // fractions of total epochs, ascending
}

// PaperSchedule returns the §4.1 schedule: ÷5 at 30 %, 60 %, and 80 %
// of training.
func PaperSchedule() StepSchedule {
	return StepSchedule{BaseLR: 0.1, Factor: 5, Milestones: []float64{0.3, 0.6, 0.8}}
}

// LRAt reports the learning rate for the given epoch of totalEpochs.
func (s StepSchedule) LRAt(epoch, totalEpochs int) float32 {
	lr := s.BaseLR
	if totalEpochs <= 0 {
		return lr
	}
	frac := float64(epoch) / float64(totalEpochs)
	for _, m := range s.Milestones {
		if frac >= m {
			lr /= s.Factor
		}
	}
	return lr
}
