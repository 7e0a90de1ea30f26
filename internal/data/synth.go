package data

import (
	"fmt"

	"nessa/internal/tensor"
)

// Dataset is an in-memory labelled feature dataset.
type Dataset struct {
	Spec   Spec
	X      *tensor.Matrix // n × FeatureDim
	Labels []int          // n, in [0, Classes)
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Generate builds the seeded synthetic train/test pair for spec.
//
// The generator produces a Gaussian mixture with one unit-norm center
// per class. Three difficulty knobs reproduce the data-selection
// dynamics of natural image datasets:
//
//   - Spread: intra-class Gaussian std. Larger spread → more class
//     overlap → lower ceiling accuracy (CINIC-10 vs SVHN).
//   - HardFrac: this fraction of samples is pulled 45 % of the way
//     toward a random other class center — a "hard tail" that produces
//     large gradients late into training, which is exactly the
//     population subset biasing (§3.2.2) must keep selecting.
//   - NoiseFrac: uniformly flipped labels, bounding achievable
//     accuracy and testing that selection does not fixate on
//     unlearnable points.
func Generate(spec Spec) (train, test *Dataset) {
	if spec.SimTrain <= 0 || spec.FeatureDim <= 0 {
		panic(fmt.Sprintf("data: spec %q has no simulation scale", spec.Name))
	}
	rng := tensor.NewRNG(spec.Seed)
	mix := newMixture(rng, spec)
	train = sample(rng.Split(), spec, mix, spec.SimTrain)
	test = sample(rng.Split(), spec, mix, spec.SimTest)
	return train, test
}

// mixture holds the per-class sub-mode centers and their cumulative
// sampling frequencies.
type mixture struct {
	modes   int
	centers *tensor.Matrix // (classes×modes) × dim, row c*modes+j
	cum     []float64      // cumulative mode frequencies, len modes
}

func newMixture(rng *tensor.RNG, spec Spec) *mixture {
	base := classCenters(rng, spec.Classes, spec.FeatureDim)
	modes := spec.Modes
	if modes < 1 {
		modes = 1
	}
	m := &mixture{
		modes:   modes,
		centers: tensor.NewMatrix(spec.Classes*modes, spec.FeatureDim),
	}
	for c := 0; c < spec.Classes; c++ {
		for j := 0; j < modes; j++ {
			row := m.centers.Row(c*modes + j)
			copy(row, base.Row(c))
			if j == 0 || spec.ModeSpread <= 0 {
				continue
			}
			// Rarer sub-modes sit progressively closer to a foreign
			// class's territory (β grows with j). An untrained model
			// misclassifies them toward that class, so a subset that
			// fails to cover rare modes pays measurable accuracy —
			// mirroring the long-tail structure of natural datasets.
			beta := float32(0.65) * float32(j) / float32(modes-1)
			if spec.Classes > 1 {
				other := (c + 1 + j) % spec.Classes
				if other == c {
					// Never pull a mode toward its own class.
					other = (c + 1) % spec.Classes
				}
				orow := base.Row(other)
				for d := range row {
					row[d] = float32((1-beta)*row[d]) + float32(beta*orow[d])
				}
			}
			// A small random offset keeps sub-modes of different
			// classes from collapsing onto identical boundary points.
			off := make([]float32, spec.FeatureDim)
			for d := range off {
				off[d] = rng.NormFloat32()
			}
			if n := tensor.Norm(off); n > 0 {
				scale := float32(0.25*spec.ModeSpread) / n
				for d := range row {
					row[d] += float32(off[d] * scale)
				}
			}
			if rn := tensor.Norm(row); rn > 0 {
				inv := 1 / rn
				for d := range row {
					row[d] *= inv
				}
			}
		}
	}
	decay := spec.ModeDecay
	if decay <= 0 || decay >= 1 {
		decay = 0.55
	}
	var total float64
	w := 1.0
	weights := make([]float64, modes)
	for j := 0; j < modes; j++ {
		weights[j] = w
		total += w
		w *= decay
	}
	m.cum = make([]float64, modes)
	acc := 0.0
	for j, wj := range weights {
		acc += wj / total
		m.cum[j] = acc
	}
	return m
}

// pick draws a mode index according to the frequency distribution.
func (m *mixture) pick(rng *tensor.RNG) int {
	u := rng.Float64()
	for j, c := range m.cum {
		if u <= c {
			return j
		}
	}
	return m.modes - 1
}

// center returns the center of class c's mode j.
func (m *mixture) center(c, j int) []float32 { return m.centers.Row(c*m.modes + j) }

// classCenters draws one unit-norm direction per class.
func classCenters(rng *tensor.RNG, classes, dim int) *tensor.Matrix {
	c := tensor.NewMatrix(classes, dim)
	for i := 0; i < classes; i++ {
		row := c.Row(i)
		for j := range row {
			row[j] = rng.NormFloat32()
		}
		n := tensor.Norm(row)
		if n == 0 {
			row[0] = 1
			continue
		}
		inv := 1 / n
		for j := range row {
			row[j] *= inv
		}
	}
	return c
}

func sample(rng *tensor.RNG, spec Spec, mix *mixture, n int) *Dataset {
	d := &Dataset{
		Spec:   spec,
		X:      tensor.NewMatrix(n, spec.FeatureDim),
		Labels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		cls := i % spec.Classes // balanced classes
		d.Labels[i] = cls
		row := d.X.Row(i)
		copy(row, mix.center(cls, mix.pick(rng)))

		if rng.Float64() < spec.HardFrac {
			// Pull toward a foreign class: a boundary sample.
			other := rng.Intn(spec.Classes)
			for other == cls && spec.Classes > 1 {
				other = rng.Intn(spec.Classes)
			}
			orow := mix.center(other, 0)
			for j := range row {
				row[j] = float32(0.55*row[j]) + float32(0.45*orow[j])
			}
		}
		for j := range row {
			row[j] += float32(rng.NormFloat32() * float32(spec.Spread))
		}
		if rng.Float64() < spec.NoiseFrac && spec.Classes > 1 {
			flip := rng.Intn(spec.Classes)
			for flip == cls {
				flip = rng.Intn(spec.Classes)
			}
			d.Labels[i] = flip
		}
	}
	return d
}

// Subset returns a new dataset containing the rows of d at the given
// indices, in order.
func (d *Dataset) Subset(indices []int) *Dataset {
	s := &Dataset{
		Spec:   d.Spec,
		X:      tensor.NewMatrix(len(indices), d.X.Cols),
		Labels: make([]int, len(indices)),
	}
	for i, idx := range indices {
		copy(s.X.Row(i), d.X.Row(idx))
		s.Labels[i] = d.Labels[idx]
	}
	return s
}

// ClassIndex groups sample indices by label: result[c] lists the
// indices with label c. Selection operates per class (paper §3.2.3:
// "pairwise similarities between all examples from the same class").
func (d *Dataset) ClassIndex() [][]int {
	idx := make([][]int, d.Spec.Classes)
	for i, y := range d.Labels {
		idx[y] = append(idx[y], i)
	}
	return idx
}
