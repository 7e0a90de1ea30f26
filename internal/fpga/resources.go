// Package fpga models the Kintex KU15P FPGA on the SmartSSD: the
// device resource budget the paper reports against (Table 4), a
// bottom-up resource estimator for the NeSSA selection kernel, and a
// cycle-level time model used to cost near-storage selection (Fig 4).
package fpga

import "time"

// Budget is the available resource pool of an FPGA. PaperKU15P returns
// the budget row of Table 4.
type Budget struct {
	LUT  int
	FF   int
	BRAM int
	DSP  int
}

// PaperKU15P returns the "Available" column of Table 4.
func PaperKU15P() Budget {
	return Budget{LUT: 432_000, FF: 919_000, BRAM: 738, DSP: 1962}
}

// Usage is an absolute resource consumption.
type Usage struct {
	LUT  int
	FF   int
	BRAM int
	DSP  int
}

// Add accumulates o into u.
func (u *Usage) Add(o Usage) {
	u.LUT += o.LUT
	u.FF += o.FF
	u.BRAM += o.BRAM
	u.DSP += o.DSP
}

// Utilization is Usage expressed as a percentage of a Budget.
type Utilization struct {
	LUT, FF, BRAM, DSP float64
}

// Utilization computes u as percentages of b.
func (u Usage) Utilization(b Budget) Utilization {
	pct := func(used, avail int) float64 {
		if avail == 0 {
			return 0
		}
		return 100 * float64(used) / float64(avail)
	}
	return Utilization{
		LUT:  pct(u.LUT, b.LUT),
		FF:   pct(u.FF, b.FF),
		BRAM: pct(u.BRAM, b.BRAM),
		DSP:  pct(u.DSP, b.DSP),
	}
}

// Fits reports whether u fits within b.
func (u Usage) Fits(b Budget) bool {
	return u.LUT <= b.LUT && u.FF <= b.FF && u.BRAM <= b.BRAM && u.DSP <= b.DSP
}

// KernelConfig parameterizes the NeSSA selection kernel: an int8 MAC
// processing-element array for the quantized forward pass, a bank of
// squared-distance units for the facility-location similarity
// computation, fixed infrastructure (lazy-greedy priority logic, DMA
// engines, P2P controller, control plane), and on-chip buffers for the
// quantized weights and one partition's gradient embeddings.
type KernelConfig struct {
	PEs              int     // int8 multiply-accumulate processing elements
	MACsPerCycle     int     // int8 MACs per PE per cycle (DSP48 packing)
	DistUnits        int     // parallel squared-distance lanes
	ClockMHz         float64 // kernel clock
	WeightBufBytes   int64   // on-chip quantized-weight buffer
	EmbeddingBufSize int64   // on-chip per-chunk embedding buffer
}

// DefaultKernel returns the deployed NeSSA kernel configuration,
// calibrated so its utilization on the KU15P reproduces Table 4
// (LUT 67.53 %, FF 23.14 %, BRAM 50.30 %, DSP 42.67 %).
func DefaultKernel() KernelConfig {
	return KernelConfig{
		PEs:              512,
		MACsPerCycle:     4, // two int8 MACs per DSP48E2 plus dual-pumping
		DistUnits:        64,
		ClockMHz:         250,
		WeightBufBytes:   220 * 1024,
		EmbeddingBufSize: 512 * 1024,
	}
}

// Per-unit synthesis costs (LUT, FF, BRAM, DSP) of the kernel building
// blocks. These are in line with published SmartSSD accelerator
// reports: an int8 MAC PE with its operand registers and accumulator, a
// pipelined squared-distance lane, and the fixed DMA/greedy/control
// infrastructure.
var (
	peCost        = Usage{LUT: 350, FF: 240, BRAM: 0, DSP: 1}
	distUnitCost  = Usage{LUT: 634, FF: 528, BRAM: 2, DSP: 4}
	fixedInfra    = Usage{LUT: 72_000, FF: 56_000, BRAM: 60, DSP: 69}
	bramBytesEach = int64(4096) // usable bytes per BRAM for buffering
)

// Estimate computes the kernel's resource usage.
func (c KernelConfig) Estimate() Usage {
	u := fixedInfra
	u.Add(Usage{
		LUT: c.PEs * peCost.LUT, FF: c.PEs * peCost.FF,
		BRAM: c.PEs * peCost.BRAM, DSP: c.PEs * peCost.DSP,
	})
	u.Add(Usage{
		LUT: c.DistUnits * distUnitCost.LUT, FF: c.DistUnits * distUnitCost.FF,
		BRAM: c.DistUnits * distUnitCost.BRAM, DSP: c.DistUnits * distUnitCost.DSP,
	})
	u.Add(Usage{BRAM: bramCount(c.WeightBufBytes) + bramCount(c.EmbeddingBufSize)})
	return u
}

func bramCount(bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	return int((bytes + bramBytesEach - 1) / bramBytesEach)
}

// AvailableBufferBytes reports how many bytes of on-chip buffering the
// budget b still has to give after the kernel c is placed: the free
// BRAM blocks times the usable bytes per block. This is the memory
// pool the streaming selection state (sieve ladders, backup sets,
// reservoirs) must fit into — the DRAM-resident embedding matrix of
// the batch path is exactly what streaming selection exists to avoid.
func (c KernelConfig) AvailableBufferBytes(b Budget) int64 {
	free := b.BRAM - c.Estimate().BRAM
	if free <= 0 {
		return 0
	}
	return int64(free) * bramBytesEach
}

// ForwardTime models the quantized selection forward pass: n samples
// through a model with macsPerSample multiply-accumulates, spread over
// the PE array at the kernel clock.
func (c KernelConfig) ForwardTime(n int, macsPerSample int64) time.Duration {
	if n <= 0 || macsPerSample <= 0 {
		return 0
	}
	lanes := c.PEs * c.macsPerCycle()
	cycles := float64(int64(n)*macsPerSample) / float64(lanes)
	return c.cycles(cycles)
}

func (c KernelConfig) macsPerCycle() int {
	if c.MACsPerCycle <= 0 {
		return 1
	}
	return c.MACsPerCycle
}

// SelectionTime models the facility-location greedy selection of k
// medoids from n candidates with dim-dimensional embeddings using
// stochastic greedy: each of the k rounds evaluates n/k·ln(1/ε)
// candidates, and each evaluation is a dim-element squared distance
// spread across the distance lanes. eps is the stochastic-greedy
// accuracy parameter (the paper cites the O(N) lazier-than-lazy
// variant; ε=0.1 gives ≈2.3 candidate evaluations per element).
func (c KernelConfig) SelectionTime(n, k, dim int, eps float64) time.Duration {
	if n <= 0 || k <= 0 || dim <= 0 {
		return 0
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	lnInv := logInv(eps)
	evals := float64(n) * lnInv // k rounds × (n/k)·ln(1/ε) each
	cycles := evals * float64(dim) / float64(c.DistUnits)
	return c.cycles(cycles)
}

func logInv(eps float64) float64 {
	// ln(1/eps) via the identity ln(1/x) = -ln(x); small custom ln to
	// keep math usage explicit. Accuracy to ~1e-9 is irrelevant here.
	x := 1 / eps
	// ln via halving to [1,2) and atanh series.
	k := 0.0
	for x >= 2 {
		x /= 2
		k++
	}
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 30; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	return float64(2*sum) + float64(k*0.6931471805599453)
}

func (c KernelConfig) cycles(n float64) time.Duration {
	sec := n / (c.ClockMHz * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// PowerWatts reports the FPGA power envelope (paper §2.2: ~7.5 W,
// versus 45 W for a K1200 and 250 W for an A100).
func PowerWatts() float64 { return 7.5 }
