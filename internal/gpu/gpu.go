// Package gpu models the training-side hardware of the NeSSA system:
// a GPU catalog (the K1200, V100, and A100 the paper references), a
// FLOP registry of image-classification architectures (Fig 1), a
// data-loading pipeline model that exposes the data-movement share of
// training time (Fig 2), and a host-CPU cost model for the CPU-based
// selection baselines of Fig 4.
//
// Times produced here are simulated wall clock on a virtual timeline —
// the paper measured the same quantities on real hardware; see
// DESIGN.md §1 for the substitution rationale.
package gpu

import (
	"fmt"
	"time"
)

// GPU describes one accelerator's sustained training characteristics.
type GPU struct {
	Name           string
	SustainedFLOPS float64 // sustained training FLOP/s (fwd+bwd mix)
	Watts          float64
	IngestCachedBW float64 // bytes/s re-reading a dataset in page cache
	IngestColdBW   float64 // bytes/s streaming small files from disk
	CacheBytes     int64   // host page cache available for the dataset
	DecodeFixed    time.Duration
	DecodePerKB    time.Duration
}

// V100 is the profiling GPU of Fig 2.
func V100() GPU {
	return GPU{
		Name:           "V100",
		SustainedFLOPS: 12e12,
		Watts:          300,
		IngestCachedBW: 10e9,
		IngestColdBW:   0.18e9,
		CacheBytes:     12 * 1024 * 1024 * 1024,
		DecodeFixed:    400 * time.Nanosecond,
		DecodePerKB:    270 * time.Nanosecond,
	}
}

// A100 is the Fig 1 GPU.
func A100() GPU {
	return GPU{
		Name:           "A100",
		SustainedFLOPS: 60e12,
		Watts:          250,
		IngestCachedBW: 16e9,
		IngestColdBW:   3e9, // NVMe sequential streaming with a tuned loader
		CacheBytes:     24 * 1024 * 1024 * 1024,
		DecodeFixed:    400 * time.Nanosecond,
		DecodePerKB:    270 * time.Nanosecond,
	}
}

// K1200 is the low-power GPU the paper contrasts against the FPGA's
// 7.5 W envelope (§2.2). Included for the energy comparison.
func K1200() GPU {
	return GPU{
		Name:           "K1200",
		SustainedFLOPS: 0.8e12,
		Watts:          45,
		IngestCachedBW: 6e9,
		IngestColdBW:   0.15e9,
		CacheBytes:     8 * 1024 * 1024 * 1024,
		DecodeFixed:    400 * time.Nanosecond,
		DecodePerKB:    270 * time.Nanosecond,
	}
}

// ComputeTimePerImage reports the training compute time for one image
// of a model with fwdGFLOPs forward cost. Training ≈ 3× forward
// (forward + input/weight backward), the standard rule of thumb.
func (g GPU) ComputeTimePerImage(fwdGFLOPs float64) time.Duration {
	if fwdGFLOPs <= 0 {
		return 0
	}
	sec := 3 * fwdGFLOPs * 1e9 / g.SustainedFLOPS
	return time.Duration(sec * float64(time.Second))
}

// LoadTimePerImage reports the data-pipeline cost of delivering one
// record of bytesPerImage to the GPU when the full dataset occupies
// datasetBytes: storage/ingest transfer (page-cached if the dataset
// fits the cache, cold small-file streaming otherwise) plus CPU decode
// and augmentation.
func (g GPU) LoadTimePerImage(bytesPerImage, datasetBytes int64) time.Duration {
	if bytesPerImage <= 0 {
		return 0
	}
	bw := g.IngestCachedBW
	if datasetBytes > g.CacheBytes {
		bw = g.IngestColdBW
	}
	transfer := time.Duration(float64(bytesPerImage) / bw * float64(time.Second))
	decode := g.DecodeFixed + time.Duration(float64(bytesPerImage)/1024*float64(g.DecodePerKB))
	return transfer + decode
}

// EpochBreakdown is the per-epoch time split of a training run.
type EpochBreakdown struct {
	Compute time.Duration // GPU gradient computation
	Load    time.Duration // data movement + decode
	Total   time.Duration // Compute + Load (the paper's Fig 2 is unoverlapped shares)
}

// MovementShare reports the fraction of epoch time spent on data
// movement, the quantity Fig 2 plots.
func (b EpochBreakdown) MovementShare() float64 {
	if b.Total <= 0 {
		return 0
	}
	return b.Load.Seconds() / b.Total.Seconds()
}

// Epoch computes the breakdown of one epoch over n images of
// bytesPerImage each with a model of fwdGFLOPs forward cost per image.
// Compute and load serialize, matching the unoverlapped shares Fig 2
// profiles.
func (g GPU) Epoch(n int, bytesPerImage int64, fwdGFLOPs float64) EpochBreakdown {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative image count %d", n))
	}
	compute := time.Duration(int64(n)) * g.ComputeTimePerImage(fwdGFLOPs)
	load := time.Duration(int64(n)) * g.LoadTimePerImage(bytesPerImage, int64(n)*bytesPerImage)
	return EpochBreakdown{Compute: compute, Load: load, Total: compute + load}
}

// EpochOverlapped is Epoch under a fully pipelined loader (prefetch
// threads hide whichever of compute/load is shorter): the epoch takes
// the maximum of the two. This is the regime of the tuned ImageNet-1k
// training runs Fig 1 samples.
func (g GPU) EpochOverlapped(n int, bytesPerImage int64, fwdGFLOPs float64) EpochBreakdown {
	b := g.Epoch(n, bytesPerImage, fwdGFLOPs)
	b.Total = max(b.Compute, b.Load)
	return b
}
