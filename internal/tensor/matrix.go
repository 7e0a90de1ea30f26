// Package tensor implements the dense float32 linear-algebra kernels
// used by the neural-network training substrate and the selection
// algorithms: row-major matrices, GEMM variants, vector helpers, and a
// deterministic random number generator.
//
// The package deliberately stays small: NeSSA's selection model only
// needs forward passes and last-layer gradient embeddings, so a full
// autodiff engine is unnecessary.
package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix. Data is a single backing
// slice of length Rows*Cols; row i occupies Data[i*Cols : (i+1)*Cols].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
//
//nessa:inline
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
//
//nessa:inline
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// FillNormal fills m with N(0, std²) variates from r.
func (m *Matrix) FillNormal(r *RNG, std float32) {
	for i := range m.Data {
		m.Data[i] = r.NormFloat32() * std
	}
}

// GatherRows copies src rows idx[i] into dst rows i in one fused pass
// — the permuted-batch gather of the training loop. dst must have
// len(idx) rows and src's column count.
//
//nessa:hotpath
func GatherRows(dst, src *Matrix, idx []int) {
	if dst.Cols != src.Cols || dst.Rows != len(idx) {
		panic(fmt.Sprintf("tensor: GatherRows shape mismatch: dst %dx%d, src cols %d, %d indices",
			dst.Rows, dst.Cols, src.Cols, len(idx)))
	}
	for i, s := range idx {
		copy(dst.Row(i), src.Row(s))
	}
}

// EnsureShape returns m resized to rows×cols, reusing its backing
// array whenever capacity allows — the scratch-arena primitive behind
// the zero-allocation training loop. A nil m or insufficient capacity
// allocates fresh; contents are unspecified either way (callers
// overwrite). Shrinking (e.g. for a short tail batch) keeps the full
// capacity, so the next full-size batch reuses the same storage.
//
//nessa:hotpath
func EnsureShape(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix(rows, cols)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// AddRowVec adds vector v to every row of m in place.
//
//nessa:hotpath
func AddRowVec(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec length %d, want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		// Pinning the row length to len(v) lets the prover discharge
		// both index checks in the element loop.
		row := m.Row(i)[:len(v)]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// AddRowVecReLU adds vector v to every row of m and applies
// max(·, 0), in one pass: the fused bias + activation epilogue of a
// hidden layer, without re-streaming m through the cache.
//
// The clamp is the branch-free builtin max, because a compare-and-branch
// mispredicts on ReLU's data-dependent sign split. It differs from
// `if t < 0 { t = 0 }` in one case only: a -0 sum yields +0 instead of
// -0. On the forward path that case never arises: every GEMM output
// accumulates from +0, so no row entry is -0, and x + v is -0 only when
// both addends are -0. Forward values are therefore bit-identical to
// the branching clamp.
//
//nessa:hotpath
func AddRowVecReLU(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVecReLU length %d, want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)[:len(v)]
		for j := range row {
			row[j] = max(row[j]+v[j], 0)
		}
	}
}
