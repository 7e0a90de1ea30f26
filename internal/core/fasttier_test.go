package core

import (
	"hash/fnv"
	"math"
	"testing"

	"nessa/internal/data"
	"nessa/internal/tensor"
)

// goldenFastTrajectory is the fast-tier (BitExact=false) counterpart of
// trainer's goldenTrajectory: the FNV-1a hash of every epoch loss,
// accuracy and subset size of the run below, recorded at the last
// commit that still had GEMM tuning knobs, at their defaults (automatic
// banding, KC=256, NR=8). The fast tier's association order is fixed by
// the kernels alone, so the hash must hold at every worker count.
const goldenFastTrajectory = 0x84dd32a7b90dba76

func TestFastTierTrajectoryPinned(t *testing.T) {
	if !tensor.FastMathSupported() {
		t.Skip("AVX2/FMA unavailable on this host")
	}
	defer tensor.SetFastMath(false)
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = 8
	for _, w := range []int{1, 2} {
		opt := tinyOptions()
		opt.BitExact = false
		opt.Workers = w
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := trajectoryHash(rep); got != goldenFastTrajectory {
			t.Errorf("workers=%d fast-tier trajectory %#x != golden %#x — the fast tier's association order changed", w, got, uint64(goldenFastTrajectory))
		}
	}
}

// trajectoryHash is the FNV-1a hash of every epoch's loss, accuracy and
// subset size.
func trajectoryHash(rep *Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for e := range rep.Metrics.EpochLoss {
		put64(math.Float64bits(rep.Metrics.EpochLoss[e]))
		put64(math.Float64bits(rep.Metrics.EpochAcc[e]))
		put64(uint64(rep.Metrics.SubsetSizes[e]))
	}
	return h.Sum64()
}
