package erasure

import (
	"bytes"
	"testing"

	"nessa/internal/tensor"
)

// FuzzReconstructMatchesPortable encodes a random (k, m) stripe with
// k+m ≤ 12, shards of 0…4096 bytes starting at offset 0…31 of their
// buffers, loses up to m shards — data or parity, chosen by the mask —
// and requires Reconstruct and ReconstructData to return the original
// bytes, rebuilt in place into the lost entries' stale capacity. It
// also requires dotSlices on the vector path to equal the portable
// loops on the same coefficients and sources, bit for bit.
func FuzzReconstructMatchesPortable(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(4096), uint8(0), uint16(0b000011), uint64(1))
	f.Add(uint8(3), uint8(1), uint16(33), uint8(5), uint16(0b1000), uint64(2))
	f.Add(uint8(11), uint8(1), uint16(31), uint8(31), uint16(1<<11), uint64(3))
	f.Add(uint8(5), uint8(7), uint16(1000), uint8(17), uint16(0xfff), uint64(4))
	f.Add(uint8(1), uint8(1), uint16(0), uint8(0), uint16(1), uint64(5))
	f.Fuzz(func(t *testing.T, k8, m8 uint8, size16 uint16, off8 uint8, mask uint16, seed uint64) {
		k := 1 + int(k8)%11
		m := 1 + int(m8)%(12-k)
		size, off := int(size16)%4097, int(off8)%32
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(seed)
		full := randShards(rng, k+m, off+size)
		for i := range full {
			full[i] = full[i][off:]
		}
		if err := c.Encode(full); err != nil {
			t.Fatal(err)
		}

		// dotSlices over the data shards, vector path against portable.
		coef := make([]byte, k)
		for i := range coef {
			coef[i] = byte(rng.Uint64())
		}
		got, want := make([]byte, off+size)[off:], make([]byte, size)
		dotSlices(coef, full[:k], got)
		withPortable(func() { dotSlices(coef, full[:k], want) })
		if !bytes.Equal(got, want) {
			t.Fatalf("%d+%d, %d bytes at offset %d: vector dotSlices differs from the portable kernel", k, m, size, off)
		}
		if size == 0 {
			return // every entry is empty: nothing survives to decode from
		}

		var lost []int
		for i := 0; i < k+m && len(lost) < m; i++ {
			if mask&(1<<i) != 0 {
				lost = append(lost, i)
			}
		}
		for name, decode := range map[string]func(*Code, [][]byte) error{"Reconstruct": (*Code).Reconstruct, "ReconstructData": (*Code).ReconstructData} {
			work := append([][]byte(nil), full...)
			for _, i := range lost {
				stale := make([]byte, off+size)
				for j := range stale {
					stale[j] = 0xEE
				}
				work[i] = stale[off:off]
			}
			if err := decode(c, work); err != nil {
				t.Fatalf("%s %d+%d lost %v: %v", name, k, m, lost, err)
			}
			for i := range work {
				if name == "ReconstructData" && i >= k && len(work[i]) == 0 {
					continue // parity is left missing by design
				}
				if !bytes.Equal(work[i], full[i]) {
					t.Fatalf("%s %d+%d, %d bytes at offset %d, lost %v: shard %d differs from the original", name, k, m, size, off, lost, i)
				}
			}
		}
	})
}
