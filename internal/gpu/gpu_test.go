package gpu

import (
	"math"
	"testing"
	"time"

	"nessa/internal/data"
)

func TestFig2MNISTMovementShare(t *testing.T) {
	// Paper §1: MNIST (0.5 KB/image, 50 K images) spends ~5.4 % of
	// training time on data movement on a V100.
	g := V100()
	m, _ := networkProfile("ResNet-20")
	b := g.Epoch(50_000, 512, m.ForwardGFLOPs)
	share := b.MovementShare() * 100
	if share < 4.0 || share > 7.0 {
		t.Fatalf("MNIST movement share = %.1f %%, want ~5.4 %%", share)
	}
}

func TestFig2ImageNet100MovementShare(t *testing.T) {
	// Paper §1: ImageNet-100 (130 KB/image, 130 K images) spends
	// ~40.4 % of training time on data movement.
	g := V100()
	m, _ := networkProfile("ResNet-50")
	spec, _ := data.Lookup("ImageNet-100")
	b := g.Epoch(spec.Train, spec.BytesPerImage, m.ForwardGFLOPs)
	share := b.MovementShare() * 100
	if share < 35.0 || share > 48.0 {
		t.Fatalf("ImageNet-100 movement share = %.1f %%, want ~40.4 %%", share)
	}
}

func TestMovementShareGrowsWithImageBytes(t *testing.T) {
	g := V100()
	m, _ := networkProfile("ResNet-50")
	small := g.Epoch(130_000, 3*1024, m.ForwardGFLOPs).MovementShare()
	big := g.Epoch(130_000, 129*1024, m.ForwardGFLOPs).MovementShare()
	if big <= small {
		t.Fatalf("movement share should grow with image size: %.3f vs %.3f", small, big)
	}
}

func TestColdCacheSlowerThanWarm(t *testing.T) {
	g := V100()
	warm := g.LoadTimePerImage(3*1024, 1024*1024) // tiny dataset: cached
	cold := g.LoadTimePerImage(3*1024, 100*1024*1024*1024)
	if cold <= warm {
		t.Fatalf("cold load (%v) should exceed cached load (%v)", cold, warm)
	}
}

func TestFig1TrainingTimesRise(t *testing.T) {
	// Fig 1: per-epoch ImageNet-1k training time grows dramatically
	// from AlexNet (2012) to ViT-L (2021).
	g := A100()
	spec := data.ImageNet1k()
	cat := Fig1Catalog()
	first := g.EpochOverlapped(spec.Train, spec.BytesPerImage, cat[0].ForwardGFLOPs).Total
	last := g.EpochOverlapped(spec.Train, spec.BytesPerImage, cat[len(cat)-1].ForwardGFLOPs).Total
	if ratio := last.Seconds() / first.Seconds(); ratio < 20 {
		t.Fatalf("ViT-L/AlexNet epoch-time ratio = %.1f, want > 20×", ratio)
	}
	// Spot values: AlexNet tens of seconds, ViT-L around an hour.
	if first < 20*time.Second || first > 5*time.Minute {
		t.Errorf("AlexNet epoch = %v, want O(1 min)", first)
	}
	if last < 30*time.Minute || last > 3*time.Hour {
		t.Errorf("ViT-L epoch = %v, want O(1 h)", last)
	}
}

func TestFig1CatalogChronological(t *testing.T) {
	cat := Fig1Catalog()
	if len(cat) < 8 {
		t.Fatalf("catalog has %d models, want a decade's worth (>=8)", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i].Year < cat[i-1].Year {
			t.Fatalf("catalog not chronological at %s", cat[i].Name)
		}
	}
}

func TestNetworkProfiles(t *testing.T) {
	for _, name := range []string{"ResNet-20", "ResNet-18", "ResNet-18@64", "ResNet-50"} {
		m, ok := networkProfile(name)
		if !ok || m.ForwardGFLOPs <= 0 {
			t.Errorf("missing or invalid profile %q", name)
		}
	}
	if _, ok := networkProfile("LeNet"); ok {
		t.Error("unexpected profile for unknown network")
	}
}

func TestDatasetNetworkTinyImageNetUpscales(t *testing.T) {
	m, ok := DatasetNetwork("TinyImageNet", "ResNet-18")
	if !ok || m.Name != "ResNet-18@64" {
		t.Fatalf("TinyImageNet should map to ResNet-18@64, got %v", m.Name)
	}
	m, _ = DatasetNetwork("CIFAR-100", "ResNet-18")
	if m.Name != "ResNet-18" {
		t.Fatalf("CIFAR-100 should keep ResNet-18, got %v", m.Name)
	}
}

func TestComputeTimeLinearInFLOPs(t *testing.T) {
	g := V100()
	a := g.ComputeTimePerImage(1)
	b := g.ComputeTimePerImage(2)
	if b != 2*a {
		t.Fatalf("compute time not linear: %v vs %v", a, b)
	}
	if g.ComputeTimePerImage(0) != 0 {
		t.Error("zero FLOPs should take zero time")
	}
}

func TestEpochNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative image count")
		}
	}()
	V100().Epoch(-1, 100, 1)
}

func TestHostCPULoadTime(t *testing.T) {
	c := DefaultHostCPU()
	// 1.4 GB at 1.4 GB/s = 1 s.
	got := c.LoadTime(1_400_000_000)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("load time = %v, want 1s", got)
	}
	if c.LoadTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
}

func TestKCentersCostlierThanCRAIG(t *testing.T) {
	// The structural reason Fig 4 orders k-Centers slowest: it clusters
	// wide feature embeddings instead of C-dim gradient proxies.
	n, k := 50_000, 15_000
	craig := CRAIGSelectionFLOPs(n, k, 10, 0.041)
	kc := KCentersSelectionFLOPs(n, k, 512, 0.041)
	if kc <= craig {
		t.Fatalf("k-Centers FLOPs (%.3g) should exceed CRAIG's (%.3g)", kc, craig)
	}
	if ratio := kc / craig; ratio < 2 {
		t.Errorf("k-Centers/CRAIG cost ratio = %.1f, want a wide gap", ratio)
	}
}

func TestSelectionFLOPsDegenerate(t *testing.T) {
	if CRAIGSelectionFLOPs(0, 5, 10, 1) != 0 || KCentersSelectionFLOPs(5, 0, 10, 1) != 0 {
		t.Error("degenerate selection should cost zero")
	}
}

func TestGPUCatalogPower(t *testing.T) {
	// §2.2's energy argument: K1200 45 W, A100 250 W (vs FPGA 7.5 W).
	if K1200().Watts != 45 {
		t.Errorf("K1200 = %v W, want 45", K1200().Watts)
	}
	if A100().Watts != 250 {
		t.Errorf("A100 = %v W, want 250", A100().Watts)
	}
}

func TestKCentersScalesWithK(t *testing.T) {
	// The O(n·k·d) sweep: doubling k should nearly double the distance
	// cost (the forward-pass term is shared).
	a := KCentersSelectionFLOPs(50_000, 5_000, 512, 0)
	b := KCentersSelectionFLOPs(50_000, 10_000, 512, 0)
	if math.Abs(b/a-2) > 1e-9 {
		t.Fatalf("k-Centers distance cost ratio = %v, want exactly 2", b/a)
	}
}
