package erasure

import (
	"bytes"
	"testing"

	"nessa/internal/tensor"
)

// refDot is the byte-at-a-time reference for dotSlices: one field
// multiply per byte through the log/exp tables, no row tables, no
// grouping.
func refDot(coef []byte, in [][]byte, out []byte) {
	for i := range out {
		var acc byte
		for k, c := range coef {
			if v := in[k][i]; c != 0 && v != 0 {
				acc ^= expTable[int(logTable[c])+int(logTable[v])]
			}
		}
		out[i] = acc
	}
}

// TestDotSlicesMatchesReference drives the fused kernel against the
// reference for every coefficient value, every length 0…67 and 1…9
// sources: source counts that are not multiples of four go through the
// mulAddSlice tail, counts below four through the clear-then-tail path,
// and out starts dirty so a missed store shows.
func TestDotSlicesMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(41)
	const maxLen, maxSrc = 67, 9
	in := randShards(rng, maxSrc, maxLen+5) // sources longer than out are legal
	coef := make([]byte, maxSrc)
	got, want := make([]byte, maxLen), make([]byte, maxLen)
	for c := 0; c < 256; c++ {
		for n := 1; n <= maxSrc; n++ {
			// The coefficient under test rotates through every source
			// position; the others are arbitrary, including 0 and 1.
			for k := range coef[:n] {
				coef[k] = byte(rng.Uint64())
			}
			coef[c%n] = byte(c)
			coef[(c+1)%n] &= 1
			for length := 0; length <= maxLen; length++ {
				for i := range got[:length] {
					got[i] = 0xA5
				}
				dotSlices(coef[:n], in[:n], got[:length])
				refDot(coef[:n], in[:n], want[:length])
				if !bytes.Equal(got[:length], want[:length]) {
					t.Fatalf("coef %d, %d sources, length %d: fused kernel differs from the reference", c, n, length)
				}
			}
		}
	}
}

// withPortable runs f with the vector kernels switched off, so the
// row-table loops compute all of out.
func withPortable(f func()) {
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = false
	f()
}

// TestDotSlicesVectorBlocks reaches the vector loop's full range:
// lengths 32·j−1, 32·j and 32·j+1 for j ≤ 32 (the store and
// xor-accumulate kernels over 1…32 blocks, the sub-32-byte tail on
// either side of a block edge), on out and sources starting at every
// offset 0…31 of their buffers, with 1…9 sources (groups of four, the
// one-source tail, and both). Every result must equal the portable
// loops', and at offset 0 the byte-at-a-time reference. Without AVX2
// the first comparison is the portable path against itself and the
// second still binds.
func TestDotSlicesVectorBlocks(t *testing.T) {
	rng := tensor.NewRNG(53)
	const maxSrc, maxLen = 9, 32*32 + 1
	base := randShards(rng, maxSrc, maxLen+64)
	outBuf, want := make([]byte, maxLen+32), make([]byte, maxLen)
	in, coef := make([][]byte, maxSrc), make([]byte, maxSrc)
	for n := 1; n <= maxSrc; n++ {
		for off := 0; off < 32; off++ {
			for k := range coef[:n] {
				coef[k] = byte(rng.Uint64())
				in[k] = base[k][(off+7*k)%32:]
			}
			coef[off%n] &= 1 // a 0 or 1 coefficient in every draw
			for j := 0; j <= 32; j++ {
				for _, length := range []int{32*j - 1, 32 * j, 32*j + 1} {
					if length < 0 {
						continue
					}
					out := outBuf[off : off+length]
					for i := range out {
						out[i] = 0xA5
					}
					dotSlices(coef[:n], in[:n], out)
					w := want[:length]
					if off == 0 {
						refDot(coef[:n], in[:n], w)
					} else {
						for i := range w {
							w[i] = 0x5A
						}
						withPortable(func() { dotSlices(coef[:n], in[:n], w) })
					}
					if !bytes.Equal(out, w) {
						t.Fatalf("%d sources, offset %d, length %d: vector path differs from the portable kernel", n, off, length)
					}
				}
			}
		}
	}
}

// encoded returns a fully encoded shard set for a (k,m) code.
func encoded(t *testing.T, c *Code, rng *tensor.RNG, size int) [][]byte {
	t.Helper()
	shards := randShards(rng, c.data+c.parity, size)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestReconstructDataMatchesReconstruct: for every loss pattern of
// three placements the data-only decode rebuilds exactly the data
// shards Reconstruct rebuilds, and leaves every missing parity entry
// untouched — including when parity is all that was lost.
func TestReconstructDataMatchesReconstruct(t *testing.T) {
	rng := tensor.NewRNG(43)
	for _, p := range []struct{ k, m int }{{4, 2}, {3, 1}, {5, 3}} {
		c, err := New(p.k, p.m)
		if err != nil {
			t.Fatal(err)
		}
		total := p.k + p.m
		full := encoded(t, c, rng, 131)
		for _, lost := range loseCombos(total, p.m) {
			ref := append([][]byte(nil), full...)
			got := append([][]byte(nil), full...)
			for _, i := range lost {
				ref[i], got[i] = nil, nil
			}
			if err := c.Reconstruct(ref); err != nil {
				t.Fatalf("%d+%d lost %v: Reconstruct: %v", p.k, p.m, lost, err)
			}
			if err := c.ReconstructData(got); err != nil {
				t.Fatalf("%d+%d lost %v: ReconstructData: %v", p.k, p.m, lost, err)
			}
			for i := 0; i < p.k; i++ {
				if !bytes.Equal(got[i], ref[i]) || !bytes.Equal(got[i], full[i]) {
					t.Fatalf("%d+%d lost %v: data shard %d differs", p.k, p.m, lost, i)
				}
			}
			for _, i := range lost {
				if i >= p.k && got[i] != nil {
					t.Fatalf("%d+%d lost %v: ReconstructData rebuilt parity shard %d; it must decode data only", p.k, p.m, lost, i)
				}
			}
		}
	}
}

// TestReconstructReusesCapacity pins the output-buffer convention: a
// zero-length entry with room for a shard is decoded in place, a
// smaller one is replaced by a fresh allocation, and a non-empty entry
// of the wrong length is still a shape error.
func TestReconstructReusesCapacity(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const size = 96
	full := encoded(t, c, tensor.NewRNG(47), size)
	for name, decode := range map[string]func([][]byte) error{"Reconstruct": c.Reconstruct, "ReconstructData": c.ReconstructData} {
		roomy := make([]byte, size+8)
		for i := range roomy {
			roomy[i] = 0xEE // stale bytes the decode must overwrite
		}
		tight := make([]byte, size-1)
		work := append([][]byte(nil), full...)
		work[1], work[2] = roomy[:0], tight[:0]
		if err := decode(work); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(work[1], full[1]) || !bytes.Equal(work[2], full[2]) {
			t.Fatalf("%s: rebuilt shards differ from the originals", name)
		}
		if &work[1][0] != &roomy[0] {
			t.Fatalf("%s: a zero-length entry with capacity %d was not reused for a %d-byte shard", name, cap(roomy), size)
		}
		if &work[2][0] == &tight[0] {
			t.Fatalf("%s: a %d-byte-capacity entry cannot hold a %d-byte shard but was reused", name, cap(tight), size)
		}

		work = append([][]byte(nil), full...)
		work[0] = nil
		work[3] = make([]byte, size/2)
		if err := decode(work); err == nil {
			t.Fatalf("%s: a non-empty shard of the wrong length was accepted", name)
		}
	}
}

// TestKernelsDoNotAllocate: Encode and dotSlices are //nessa:hotpath and
// run once per stripe on every clean scan's parity write and every
// degraded read; a value escaping from either is one heap object per
// call. Five sources make dotSlices take its mulAddSlice tail as well
// as the grouped loop. ReconstructData is left out: it inverts a matrix
// per call by design.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := tensor.NewRNG(47)
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := randShards(rng, 6, 4096)
	if n := testing.AllocsPerRun(20, func() {
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Encode (4+2) allocates %v objects per call, want 0", n)
	}
	in, out := randShards(rng, 5, 4096), make([]byte, 4096)
	coef := []byte{3, 1, 0, 200, 77}
	if n := testing.AllocsPerRun(20, func() { dotSlices(coef, in, out) }); n != 0 {
		t.Errorf("dotSlices over 5 sources allocates %v objects per call, want 0", n)
	}
}
