package core

import (
	"hash/fnv"
	"math"
	"testing"

	"nessa/internal/data"
)

// TestBitExactFalseIsNoOp pins that Options.BitExact is ignored: the
// kernels have one tier, so a run that clears the field must hash to
// the default run at every worker count.
func TestBitExactFalseIsNoOp(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = 8
	run := func(bitExact bool, workers int) uint64 {
		opt := tinyOptions()
		opt.BitExact = bitExact
		opt.Workers = workers
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return trajectoryHash(rep)
	}
	want := run(true, 1)
	for _, w := range []int{1, 2} {
		if got := run(false, w); got != want {
			t.Errorf("workers=%d BitExact=false trajectory %#x != BitExact=true %#x", w, got, want)
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
