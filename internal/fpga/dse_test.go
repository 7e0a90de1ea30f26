package fpga

import (
	"testing"
	"time"
)

func refWorkload() Workload {
	// CIFAR-10-scale selection: 50 K records, 5 % ResNet-20 int8 proxy
	// forward, k = 15 K, 10-dim embeddings.
	return Workload{N: 50_000, MACsPerSample: 1_000_000, K: 15_000, Dim: 10, RecordBytes: 3 * 1024}
}

func TestExploreCoversGrid(t *testing.T) {
	points := Explore(PaperKU15P(), refWorkload())
	if len(points) != 20 {
		t.Fatalf("explored %d points, want 5×4 = 20", len(points))
	}
	// Sorted by throughput descending.
	for i := 1; i < len(points); i++ {
		if points[i].Throughput > points[i-1].Throughput {
			t.Fatal("design points not sorted by throughput")
		}
	}
	// At least the deployed configuration must fit.
	anyFits := false
	for _, p := range points {
		if p.Fits {
			anyFits = true
		}
	}
	if !anyFits {
		t.Fatal("no design point fits the KU15P")
	}
}

func TestBiggestConfigsBlowBudget(t *testing.T) {
	points := Explore(PaperKU15P(), refWorkload())
	for _, p := range points {
		if p.Config.PEs == 1536 && p.Config.DistUnits == 128 {
			if p.Fits {
				t.Fatal("1536 PE + 128 DU should exceed the KU15P DSP budget")
			}
			return
		}
	}
	t.Fatal("expected grid point missing")
}

func TestThroughputMonotoneInPEs(t *testing.T) {
	w := refWorkload()
	small := DefaultKernel()
	small.PEs = 128
	big := DefaultKernel()
	big.PEs = 1024
	if big.Throughput(w) <= small.Throughput(w) {
		t.Fatal("throughput should grow with PE count")
	}
}

func TestEnergyJoules(t *testing.T) {
	if got := EnergyJoules(7.5, 2*time.Second); got != 15 {
		t.Fatalf("energy = %v J, want 15", got)
	}
}

func TestFPGASelectionEnergyBeatsGPU(t *testing.T) {
	// §2.2: even if a GPU ran selection 10× faster, the 7.5 W FPGA
	// wins on energy against a 250 W A100.
	w := refWorkload()
	fpgaT := DefaultKernel().Time(w)
	fpgaE := EnergyJoules(PowerWatts(), fpgaT)
	gpuE := EnergyJoules(250, fpgaT/10)
	if fpgaE >= gpuE {
		t.Fatalf("FPGA energy %.2f J not below GPU energy %.2f J", fpgaE, gpuE)
	}
}
