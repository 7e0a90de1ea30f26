package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64) used everywhere randomness is needed so that every
// experiment in the repository is reproducible from a single seed.
// It intentionally does not use math/rand so that results cannot drift
// with Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform.
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 so the log is finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormFloat32 returns a standard normal variate as a float32.
func (r *RNG) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Split derives an independent generator from this one. Useful for
// giving each worker or dataset its own stream while preserving
// determinism from the root seed.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// State returns the generator's cursor. Together with SetState it lets
// checkpoints capture and replay a stream mid-sequence: a generator
// restored onto a saved state produces exactly the draws the original
// would have produced next.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator onto a previously captured cursor.
func (r *RNG) SetState(s uint64) { r.state = s }
