package fpga

import (
	"sort"
	"time"
)

// Workload is a reference selection job for throughput estimation:
// scan n candidate records, run the quantized forward pass
// (macsPerSample each), and select k medoids over dim-dimensional
// gradient embeddings.
type Workload struct {
	N             int
	MACsPerSample int64
	K             int
	Dim           int
	RecordBytes   int64
}

// Time reports the kernel time for the workload under config c.
func (c KernelConfig) Time(w Workload) time.Duration {
	return c.ForwardTime(w.N, w.MACsPerSample) + c.SelectionTime(w.N, w.K, w.Dim, 0.1)
}

// Throughput reports candidate records processed per second.
func (c KernelConfig) Throughput(w Workload) float64 {
	d := c.Time(w)
	if d <= 0 {
		return 0
	}
	return float64(w.N) / d.Seconds()
}

// DesignPoint is one explored kernel configuration.
type DesignPoint struct {
	Config     KernelConfig
	Usage      Usage
	Util       Utilization
	Throughput float64 // records/second on the reference workload
	Fits       bool
}

// Explore sweeps PE-array and distance-lane sizes around the deployed
// kernel and reports every design point's resource usage and
// throughput on the reference workload — the ablation behind the
// "reconfigurable, low-cost" claim of §2.2: unlike an ASIC, the kernel
// can be re-synthesized per model/dataset.
func Explore(budget Budget, w Workload) []DesignPoint {
	base := DefaultKernel()
	var points []DesignPoint
	for _, pes := range []int{128, 256, 512, 1024, 1536} {
		for _, dus := range []int{16, 32, 64, 128} {
			cfg := base
			cfg.PEs = pes
			cfg.DistUnits = dus
			u := cfg.Estimate()
			points = append(points, DesignPoint{
				Config:     cfg,
				Usage:      u,
				Util:       u.Utilization(budget),
				Throughput: cfg.Throughput(w),
				Fits:       u.Fits(budget),
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Throughput > points[j].Throughput })
	return points
}

// EnergyJoules reports the energy of running the workload at the given
// power draw for duration d — the §2.2 comparison: the SmartSSD FPGA
// filters data at ~7.5 W where a K1200 draws 45 W and an A100 250 W.
func EnergyJoules(watts float64, d time.Duration) float64 {
	return watts * d.Seconds()
}
