package fpga

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTable4Reproduction(t *testing.T) {
	// Table 4: LUT 67.53 %, FF 23.14 %, BRAM 50.30 %, DSP 42.67 %.
	u := DefaultKernel().Estimate().Utilization(PaperKU15P())
	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s utilization = %.2f %%, want %.2f ± %.2f", name, got, want, tol)
		}
	}
	check("LUT", u.LUT, 67.53, 0.5)
	check("FF", u.FF, 23.14, 0.5)
	check("BRAM", u.BRAM, 50.30, 0.5)
	check("DSP", u.DSP, 42.67, 0.5)
}

func TestKernelFitsKU15P(t *testing.T) {
	if u := DefaultKernel().Estimate(); !u.Fits(PaperKU15P()) {
		t.Fatalf("default kernel does not fit: needs %+v", u)
	}
}

func TestOversizedKernelRejected(t *testing.T) {
	c := DefaultKernel()
	c.PEs = 5000 // DSP blowout
	if c.Estimate().Fits(PaperKU15P()) {
		t.Fatal("expected oversized kernel not to fit")
	}
}

func TestUsageMonotoneInUnits(t *testing.T) {
	f := func(pes, dus uint8) bool {
		a := KernelConfig{PEs: 1 + int(pes), DistUnits: 1 + int(dus), ClockMHz: 250}
		b := a
		b.PEs++
		b.DistUnits++
		ua, ub := a.Estimate(), b.Estimate()
		return ub.LUT > ua.LUT && ub.FF > ua.FF && ub.DSP > ua.DSP && ub.BRAM >= ua.BRAM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForwardTimeScaling(t *testing.T) {
	c := DefaultKernel()
	one := c.ForwardTime(1000, 100_000)
	two := c.ForwardTime(2000, 100_000)
	if absDur(two-2*one) > 2 { // tolerate 1 ns Duration rounding
		t.Fatalf("forward time not linear in n: %v vs %v", one, two)
	}
	if c.ForwardTime(0, 100) != 0 || c.ForwardTime(100, 0) != 0 {
		t.Error("degenerate forward pass should take zero time")
	}
}

func TestForwardTimeFormula(t *testing.T) {
	c := KernelConfig{PEs: 100, MACsPerCycle: 1, DistUnits: 1, ClockMHz: 100}
	// 1000 samples × 10000 MACs / 100 PEs = 100 000 cycles at 100 MHz = 1 ms.
	if got := c.ForwardTime(1000, 10_000); got != time.Millisecond {
		t.Fatalf("forward time = %v, want 1ms", got)
	}
}

func TestMACPackingSpeedsForward(t *testing.T) {
	// int8 DSP packing: 4 MACs/cycle quarters the forward time.
	slow := KernelConfig{PEs: 100, MACsPerCycle: 1, DistUnits: 1, ClockMHz: 100}
	fast := slow
	fast.MACsPerCycle = 4
	if got := fast.ForwardTime(1000, 10_000); got != slow.ForwardTime(1000, 10_000)/4 {
		t.Fatalf("packed forward = %v, want quarter of unpacked", got)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestSelectionTimeScaling(t *testing.T) {
	c := DefaultKernel()
	base := c.SelectionTime(10_000, 1000, 10, 0.1)
	if base <= 0 {
		t.Fatal("selection time should be positive")
	}
	// Stochastic greedy is O(N): doubling n doubles time (modulo 1 ns
	// of Duration rounding).
	if got := c.SelectionTime(20_000, 1000, 10, 0.1); absDur(got-2*base) > 2 {
		t.Fatalf("selection time not O(N): %v vs 2×%v", got, base)
	}
	// Wider embedding costs more.
	if got := c.SelectionTime(10_000, 1000, 20, 0.1); got <= base {
		t.Fatal("selection time should grow with embedding dim")
	}
}

func TestSelectionTimeBadEpsDefaults(t *testing.T) {
	c := DefaultKernel()
	a := c.SelectionTime(1000, 100, 10, 0)
	b := c.SelectionTime(1000, 100, 10, 0.1)
	if a != b {
		t.Fatalf("eps=0 should default to 0.1: %v vs %v", a, b)
	}
}

func TestLogInv(t *testing.T) {
	cases := []struct{ eps, want float64 }{
		{0.1, 2.302585},
		{0.5, 0.693147},
		{0.01, 4.605170},
	}
	for _, c := range cases {
		if got := logInv(c.eps); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("logInv(%v) = %v, want %v", c.eps, got, c.want)
		}
	}
}

func TestOperationalIntensityIsLow(t *testing.T) {
	// EISC criterion (paper §2.2): kernel cycles per byte read from
	// storage must stay low (well under the ~10 cycles/byte at which a
	// 250 MHz kernel can no longer saturate a 3 GB/s link —
	// 250e6·10/3e9 < 1). The training-dynamics selection model meets it
	// because it runs only a small quantized forward pass and
	// C-dimensional distance comparisons per record.
	c := DefaultKernel()
	// CIFAR-10-like: 50 K records of 3 KB, ResNet-20-proxy forward of
	// ~50 K MACs on the selection model, k = 15 K, 10-dim embeddings.
	const n, recordBytes = 50_000, 3 * 1024
	busy := c.ForwardTime(n, 50_000) + c.SelectionTime(n, 15_000, 10, 0.1)
	oi := busy.Seconds() * c.ClockMHz * 1e6 / (n * recordBytes)
	if oi <= 0 {
		t.Fatal("operational intensity should be positive")
	}
	maxOI := c.ClockMHz * 1e6 / 3e9 // cycles/byte above which the kernel can't keep up with the link
	if oi > maxOI {
		t.Errorf("operational intensity %.4f cycles/byte exceeds link-saturation bound %.4f", oi, maxOI)
	}
}

func TestPowerEnvelope(t *testing.T) {
	// §2.2: FPGA ≈7.5 W vs 45 W (K1200) and 250 W (A100).
	if PowerWatts() != 7.5 {
		t.Fatalf("FPGA power = %v W, want 7.5", PowerWatts())
	}
}

func TestUtilizationZeroBudget(t *testing.T) {
	u := Usage{LUT: 10}
	if got := u.Utilization(Budget{}); got.LUT != 0 {
		t.Fatalf("zero budget utilization = %v, want 0", got.LUT)
	}
}

func TestAvailableBufferBytes(t *testing.T) {
	b := PaperKU15P()
	free := DefaultKernel().AvailableBufferBytes(b)
	if free <= 0 {
		t.Fatal("default kernel should leave BRAM headroom for streaming state")
	}
	// Consistency: free bytes = (budget − estimate) BRAMs × 4 KB.
	want := int64(b.BRAM-DefaultKernel().Estimate().BRAM) * bramBytesEach
	if free != want {
		t.Fatalf("AvailableBufferBytes = %d, want %d", free, want)
	}
	// A kernel that already exhausts BRAM has nothing left.
	big := DefaultKernel()
	big.DistUnits = 10_000
	if got := big.AvailableBufferBytes(b); got != 0 {
		t.Fatalf("over-budget kernel reports %d free bytes, want 0", got)
	}
}

func TestBramCount(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {4096, 1}, {4097, 2}, {512 * 1024, 128},
	}
	for _, c := range cases {
		if got := bramCount(c.bytes); got != c.want {
			t.Errorf("bramCount(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}
