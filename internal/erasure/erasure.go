// Package erasure implements a small, deterministic Reed–Solomon
// erasure code over GF(2^8) for the SmartSSD cluster's redundant
// shard placement (DESIGN.md §4.11).
//
// The code is systematic: the first DataShards shards hold the
// original bytes untouched and the last ParityShards shards hold
// parity, so the clean read path never pays a decode. Any
// ParityShards shards — data or parity, in any combination — can be
// lost and reconstructed exactly from the survivors.
//
// GF(256) arithmetic uses log/exp tables generated from the AES/QR
// polynomial x^8+x^4+x^3+x^2+1 (0x11d), and the coding matrix is the
// classic systematic Vandermonde construction (V · V_top⁻¹), whose every
// DataShards×DataShards submatrix is invertible. The construction is
// a pure function of (DataShards, ParityShards): two clusters with
// the same placement always agree on parity bytes, which is what
// makes degraded scans bit-identical across runs. The bulk kernel runs
// on AVX2 where the CPU has it (gf_amd64.s) and on portable Go
// row-table loops everywhere else; both produce the same bytes.
package erasure

import (
	"fmt"

	"nessa/internal/cpu"
)

// gfPoly is the irreducible polynomial generating GF(2^8).
const gfPoly = 0x11d

// expTable[i] = g^i for the generator g=2; doubled so products of two
// logs index without a mod. logTable inverts it (logTable[0] unused).
// mulTable[c] is c's full multiplication row, the portable kernel's
// lookup; nibbleTable[c] holds the same products split by nibble,
// c·0…c·15 then c·0x00…c·0xf0, the vector kernel's two PSHUFB tables.
var (
	expTable    [510]byte
	logTable    [256]byte
	mulTable    [256][256]byte
	nibbleTable [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
	}
	for c := range nibbleTable {
		for x := 0; x < 16; x++ {
			nibbleTable[c][x] = mulTable[c][x]
			nibbleTable[c][16+x] = mulTable[c][x<<4]
		}
	}
}

// useAVX2 routes dotSlices and mulAddSlice through the split-nibble
// kernels in gf_amd64.s: AVX2 in hardware and an OS that saves the YMM
// state. It is cpu.AVX2 in every build; tests clear it to force the
// portable row-table loops.
var useAVX2 = cpu.AVX2

func gfMul(a, b byte) byte { return mulTable[a][b] }

// gfInv returns the multiplicative inverse of a (a must be non-zero).
func gfInv(a byte) byte { return expTable[255-int(logTable[a])] }

// Code is an immutable (DataShards, ParityShards) Reed–Solomon code.
type Code struct {
	data   int
	parity int
	// matrix is the full systematic coding matrix: (data+parity) rows
	// × data columns. The top data rows are the identity; row data+r
	// holds the coefficients producing parity shard r.
	matrix [][]byte
}

// New builds the systematic code for the given shard counts.
func New(dataShards, parityShards int) (*Code, error) {
	if dataShards < 1 || parityShards < 1 {
		return nil, fmt.Errorf("erasure: need at least 1 data and 1 parity shard, got %d+%d", dataShards, parityShards)
	}
	if dataShards+parityShards > 255 {
		return nil, fmt.Errorf("erasure: %d total shards exceeds the GF(256) limit of 255", dataShards+parityShards)
	}
	total := dataShards + parityShards
	// Vandermonde matrix over distinct evaluation points 0..total-1:
	// v[r][c] = r^c. Any dataShards of its rows are linearly
	// independent, which the right-multiplication by V_top⁻¹ preserves.
	v := make([][]byte, total)
	for r := range v {
		v[r] = make([]byte, dataShards)
		p := byte(1)
		for c := 0; c < dataShards; c++ {
			v[r][c] = p
			p = gfMul(p, byte(r))
		}
	}
	top := make([][]byte, dataShards)
	for r := range top {
		top[r] = append([]byte(nil), v[r]...)
	}
	topInv, err := invertMatrix(top)
	if err != nil {
		return nil, fmt.Errorf("erasure: building systematic matrix: %w", err)
	}
	m := matMul(v, topInv)
	return &Code{data: dataShards, parity: parityShards, matrix: m}, nil
}

// Encode fills shards[data:] with parity computed from shards[:data].
// All data+parity shards must be present and the same length.
func (c *Code) Encode(shards [][]byte) error {
	if _, err := c.checkShape(shards, true); err != nil {
		return err
	}
	for r := 0; r < c.parity; r++ {
		dotSlices(c.matrix[c.data+r], shards[:c.data], shards[c.data+r])
	}
	return nil
}

// Reconstruct rebuilds every missing shard, data and parity, in place.
// A shard is missing when its entry has length zero; a zero-length
// entry whose capacity holds a full shard is reused as the output
// buffer (so a caller can decode into memory it already owns), any
// other missing entry is allocated. It needs at least DataShards
// surviving shards; with fewer it reports how many were lost versus
// tolerable.
func (c *Code) Reconstruct(shards [][]byte) error { return c.reconstruct(shards, true) }

// ReconstructData is Reconstruct restricted to the data shards: missing
// parity entries are left exactly as they were (losing only parity is
// a no-op, not an error). A degraded read wants the lost records, not
// the parity it did not fetch, and re-encoding that parity would cost
// as much again as the decode.
func (c *Code) ReconstructData(shards [][]byte) error { return c.reconstruct(shards, false) }

func (c *Code) reconstruct(shards [][]byte, parity bool) error {
	size, err := c.checkShape(shards, false)
	if err != nil {
		return err
	}
	present := make([]int, 0, c.data)
	missing, missingData := 0, 0
	for i, s := range shards {
		if len(s) == 0 {
			missing++
			if i < c.data {
				missingData++
			}
			continue
		}
		if len(present) < c.data {
			present = append(present, i)
		}
	}
	if missing == 0 {
		return nil
	}
	if len(present) < c.data {
		return fmt.Errorf("erasure: %d shards lost but only %d parity shards configured", missing, c.parity)
	}
	if missingData > 0 {
		// Invert the submatrix of coding rows for the shards we hold:
		// inv maps the surviving shard vector back to the data vector.
		sub := make([][]byte, c.data)
		srcs := make([][]byte, c.data)
		for r, idx := range present {
			sub[r] = c.matrix[idx]
			srcs[r] = shards[idx]
		}
		inv, err := invertMatrix(sub)
		if err != nil {
			return fmt.Errorf("erasure: decode matrix is singular: %w", err)
		}
		for j := 0; j < c.data; j++ {
			if len(shards[j]) == 0 {
				shards[j] = outputFor(shards[j], size)
				dotSlices(inv[j], srcs, shards[j])
			}
		}
	}
	if !parity {
		return nil
	}
	// With all data shards in hand, missing parity is a re-encode.
	for r := c.data; r < c.data+c.parity; r++ {
		if len(shards[r]) == 0 {
			shards[r] = outputFor(shards[r], size)
			dotSlices(c.matrix[r], shards[:c.data], shards[r])
		}
	}
	return nil
}

// outputFor returns a size-byte output buffer for a missing shard:
// the entry's own backing array when it is large enough, else a new one.
func outputFor(s []byte, size int) []byte {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]byte, size)
}

// checkShape validates the shard count and that every present shard
// has one length, which it returns. With full set every entry must be
// non-nil (Encode); otherwise zero-length entries are the missing ones.
func (c *Code) checkShape(shards [][]byte, full bool) (int, error) {
	if len(shards) != c.data+c.parity {
		return 0, fmt.Errorf("erasure: got %d shards, placement is %d+%d", len(shards), c.data, c.parity)
	}
	size := -1
	for i, s := range shards {
		if full && s == nil {
			return 0, fmt.Errorf("erasure: shard %d is nil", i)
		}
		if !full && len(s) == 0 {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("erasure: shard %d is %d bytes, want %d (shards must be equal length)", i, len(s), size)
		}
	}
	if size == -1 {
		return 0, fmt.Errorf("erasure: every shard is missing")
	}
	return size, nil
}

// dotSlices computes out = Σₖ coef[k]·in[k] over GF(256): the one
// kernel under Encode and both decodes. Sources are taken four at a
// time so that out is written once per group of four instead of
// read-modify-written once per source — with k ≤ 4 (the common
// placements) a whole output stripe is a single store pass. Sources
// past the last full group go through mulAddSlice. Every in[k] must be
// at least len(out) long and none may alias out.
//
// With useAVX2 the whole 32-byte blocks of out go through the
// split-nibble kernels (gf_amd64.s) and the row-table loop covers only
// the sub-32-byte tail; without it the loop covers all of out. Both
// compute the same bytes: GF(256) arithmetic is exact.
//
//nessa:hotpath
func dotSlices(coef []byte, in [][]byte, out []byte) {
	coef = coef[:len(in)]
	full := len(in) &^ 3 // sources covered by whole groups of four
	lo := 0              // bytes of out the vector kernel covers
	if useAVX2 {
		lo = len(out) &^ 31
	}
	for k := 0; k < full; k += 4 {
		a, b, c, d := in[k][:len(out)], in[k+1][:len(out)], in[k+2][:len(out)], in[k+3][:len(out)]
		if lo > 0 {
			n0, n1, n2, n3 := &nibbleTable[coef[k]], &nibbleTable[coef[k+1]], &nibbleTable[coef[k+2]], &nibbleTable[coef[k+3]]
			if k == 0 {
				gfDot4AVX2(n0, n1, n2, n3, &a[0], &b[0], &c[0], &d[0], &out[0], lo)
			} else {
				gfDot4XorAVX2(n0, n1, n2, n3, &a[0], &b[0], &c[0], &d[0], &out[0], lo)
			}
		}
		t0, t1, t2, t3 := &mulTable[coef[k]], &mulTable[coef[k+1]], &mulTable[coef[k+2]], &mulTable[coef[k+3]]
		a, b, c, d, o := a[lo:], b[lo:], c[lo:], d[lo:], out[lo:]
		if k == 0 {
			for i := range o {
				o[i] = t0[a[i]] ^ t1[b[i]] ^ t2[c[i]] ^ t3[d[i]]
			}
		} else {
			for i := range o {
				o[i] ^= t0[a[i]] ^ t1[b[i]] ^ t2[c[i]] ^ t3[d[i]]
			}
		}
	}
	if full == 0 {
		clear(out)
	}
	for k := full; k < len(in); k++ {
		mulAddSlice(coef[k], in[k], out)
	}
}

// mulAddSlice does out[i] ^= coef*in[i] over GF(256), one source at a
// time: dotSlices' tail path, on the same vector/portable split.
//
//nessa:hotpath
func mulAddSlice(coef byte, in, out []byte) {
	if coef == 0 {
		return
	}
	in = in[:len(out)]
	lo := 0 // bytes of out the vector kernel covers
	if useAVX2 {
		lo = len(out) &^ 31
	}
	if lo > 0 {
		gfMulXorAVX2(&nibbleTable[coef], &in[0], &out[0], lo)
	}
	in, out = in[lo:], out[lo:]
	if coef == 1 {
		for i := range out {
			out[i] ^= in[i]
		}
		return
	}
	mt := &mulTable[coef]
	for i := range out {
		out[i] ^= mt[in[i]]
	}
}

// matMul multiplies a (n×k) by b (k×k).
func matMul(a, b [][]byte) [][]byte {
	n, k := len(a), len(b)
	out := make([][]byte, n)
	for r := 0; r < n; r++ {
		out[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			var acc byte
			for i := 0; i < k; i++ {
				acc ^= gfMul(a[r][i], b[i][c])
			}
			out[r][c] = acc
		}
	}
	return out
}

// invertMatrix Gauss–Jordan-inverts a square matrix over GF(256),
// leaving the input untouched beyond its own working copy.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	work := make([][]byte, n)
	inv := make([][]byte, n)
	for r := 0; r < n; r++ {
		work[r] = append([]byte(nil), m[r]...)
		inv[r] = make([]byte, n)
		inv[r][r] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		work[col], work[pivot] = work[pivot], work[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		scale := gfInv(work[col][col])
		scaleRow(work[col], scale)
		scaleRow(inv[col], scale)
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			mulAddRow(work[r], work[col], f)
			mulAddRow(inv[r], inv[col], f)
		}
	}
	return inv, nil
}

func scaleRow(row []byte, f byte) {
	for i := range row {
		row[i] = gfMul(row[i], f)
	}
}

// mulAddRow does dst ^= f*src element-wise.
func mulAddRow(dst, src []byte, f byte) {
	for i := range dst {
		dst[i] ^= gfMul(f, src[i])
	}
}
