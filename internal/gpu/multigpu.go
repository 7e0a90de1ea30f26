package gpu

import (
	"fmt"
	"time"
)

// DataParallel models synchronous data-parallel training across
// multiple GPUs — the GPU half of the paper's §5 future work ("scaling
// over multiple SmartSSDs and GPUs"). Each step splits the global
// batch across workers and pays a ring all-reduce of the gradients.
type DataParallel struct {
	GPU        GPU
	Workers    int
	LinkBW     float64 // bytes/s per NVLink/PCIe hop of the ring
	AllReduceL time.Duration
}

// NewDataParallel builds an n-GPU group with NVLink-class interconnect.
func NewDataParallel(g GPU, n int) (*DataParallel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpu: worker count %d must be positive", n)
	}
	return &DataParallel{
		GPU:        g,
		Workers:    n,
		LinkBW:     50e9, // NVLink-class per-hop bandwidth
		AllReduceL: 20 * time.Microsecond,
	}, nil
}

// AllReduceTime models a ring all-reduce of gradientBytes across the
// workers: 2·(W−1)/W of the payload crosses each link.
func (d *DataParallel) AllReduceTime(gradientBytes int64) time.Duration {
	if d.Workers == 1 || gradientBytes <= 0 {
		return 0
	}
	w := float64(d.Workers)
	volume := 2 * (w - 1) / w * float64(gradientBytes)
	sec := volume / d.LinkBW
	return d.AllReduceL + time.Duration(sec*float64(time.Second))
}

// EpochTime reports the per-epoch wall time of training n images of a
// model with fwdGFLOPs forward cost and paramBytes of gradients, at
// the given global batch size: compute parallelizes across workers,
// while each of the n/batch steps pays one all-reduce.
func (d *DataParallel) EpochTime(n int, fwdGFLOPs float64, paramBytes int64, batch int) time.Duration {
	if n <= 0 || batch <= 0 {
		return 0
	}
	compute := time.Duration(int64(n)) * d.GPU.ComputeTimePerImage(fwdGFLOPs) / time.Duration(d.Workers)
	steps := (n + batch - 1) / batch
	sync := time.Duration(steps) * d.AllReduceTime(paramBytes)
	return compute + sync
}
