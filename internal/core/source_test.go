package core

import (
	"math"
	"strings"
	"testing"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/parallel"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
)

// flipSource hands the embed loop the records its inner source
// scanned, with one feature bit of one candidate flipped — a corruption
// that happens after the scan's CRC verify, so no recovery path sees it.
type flipSource struct {
	recordSource
	target int // dataset index of the corrupted record
	rec    []byte
}

func (f *flipSource) scan(cands []int, chunk int, stream bool, visit visitFunc, rep *Report) (bool, error) {
	return f.recordSource.scan(cands, chunk, stream, func(lo, hi int, at func(int) []byte) error {
		return visit(lo, hi, func(i int) []byte {
			b := at(i)
			if cands[i] != f.target {
				return b
			}
			f.rec = append(f.rec[:0], b...)
			f.rec[10+3] ^= 1 << 4 // feature 0, exponent bit 28
			return f.rec
		})
	}, rep)
}

// runWith is Run with the session's record source wrapped by wrap.
func runWith(t *testing.T, name string, wrap func(recordSource) recordSource) *Report {
	t.Helper()
	parts := strings.Split(name, "/")
	mode, src := parts[0], parts[1]
	tr, te := data.Generate(tinySpec())
	opt := matrixOptions(mode, 1)
	attach(t, src, &opt)
	if err := validateOptions(&opt); err != nil {
		t.Fatal(err)
	}
	parallel.SetDefaultWorkers(opt.Workers)
	s, err := newSession(tr, te, matrixCfg(mode), opt)
	if err != nil {
		t.Fatal(err)
	}
	s.src = wrap(s.src)
	rep, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScannedBytesReachTheSelector: the selector consumes the bytes the
// storage stack scanned, not train.X. A bit flipped in a scanned record
// after its CRC check — or stored under a valid CRC — moves the
// trajectory off the clean cell's.
func TestScannedBytesReachTheSelector(t *testing.T) {
	for _, name := range []string{"batch/device", "streaming/device", "batch/cluster"} {
		t.Run(name, func(t *testing.T) {
			clean := matrixGolden[name+"/w1/clean"].series
			rep := runWith(t, name, func(in recordSource) recordSource { return &flipSource{recordSource: in, target: 7} })
			if trajectoryHash(rep) == clean {
				t.Error("a bit flipped after the CRC check left the trajectory unchanged: the selector ignores the scanned bytes")
			}
		})
	}
	// The same corruption written to the drive under a valid CRC.
	tr, te := data.Generate(tinySpec())
	bad := copyDataset(tr)
	row := bad.X.Row(7)
	row[0] = math.Float32frombits(math.Float32bits(row[0]) ^ 1<<28)
	dev := storeOn(t, bad)
	opt := matrixOptions("batch", 1)
	opt.Device, opt.DatasetName = dev, "ds"
	rep, err := Run(tr, te, matrixCfg("batch"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if trajectoryHash(rep) == matrixGolden["batch/device/w1/clean"].series {
		t.Error("a stored record that differs from train.X left the trajectory unchanged")
	}
}

// TestStoredImageMismatchIsAnError: a stored record whose label
// disagrees with the dataset's, or whose feature count is not the
// model's, fails core.Run with an error on every storage path — never
// a panic, never a silent train.
func TestStoredImageMismatchIsAnError(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	relabeled := copyDataset(tr)
	relabeled.Labels[11] = (relabeled.Labels[11] + 1) % tr.Spec.Classes
	short := &data.Dataset{Spec: tr.Spec, Labels: tr.Labels, X: tensor.NewMatrix(tr.Len(), tr.X.Cols-1)}
	short.Spec.FeatureDim--
	for i := 0; i < tr.Len(); i++ {
		copy(short.X.Row(i), tr.X.Row(i))
	}
	images := map[string]*data.Dataset{"label": relabeled, "feature count": short}
	for what, img := range images {
		for _, mode := range []string{"batch", "streaming", "cluster"} {
			opt := matrixOptions(mode, 1)
			if mode == "cluster" {
				opt = matrixOptions("batch", 1)
				opt.Cluster, opt.DatasetName = stripeOn(t, img), "ds"
			} else {
				opt.Device, opt.DatasetName = storeOn(t, img), "ds"
			}
			_, err := Run(tr, te, matrixCfg("batch"), opt)
			if err == nil || !strings.Contains(err.Error(), "stored record") {
				t.Errorf("%s mismatch, %s: err = %v, want a stored-record error", what, mode, err)
			}
			if faults.IsDegradable(err) {
				t.Errorf("%s mismatch, %s: a bad image must not degrade to the fallback: %v", what, mode, err)
			}
		}
	}
}

// TestReselectionAllocatesNoScanBuffer: on a batch device run the
// session lands every gathered scan in one buffer, so a second
// reselection allocates nothing that grows with |cands|·recBytes. Both
// runs are measured with moduleAllocBytes, which counts only stacks
// through module code: a TotalAlloc delta also counts the runtime's
// thread spawns, and one landing in the 1-epoch run made the difference
// negative, wrapping it to about 1.8e19.
func TestReselectionAllocatesNoScanBuffer(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	alloc := func(epochs int) int64 {
		dev := storeOn(t, tr)
		opt := matrixOptions("batch", 1)
		opt.Device, opt.DatasetName = dev, "ds"
		cfg := matrixCfg("batch")
		cfg.Epochs = epochs
		var err error
		got := moduleAllocBytes(func() { _, err = Run(tr, te, cfg, opt) })
		if err != nil {
			t.Fatal(err)
		}
		return int64(got)
	}
	alloc(2) // warm every lazily sized buffer outside the session
	second := alloc(2) - alloc(1)
	scan := int64(tr.Len()) * int64(tr.Spec.BytesPerImage)
	t.Logf("second reselection epoch: %d bytes allocated; one candidate scan: %d", second, scan)
	if second >= scan/2 {
		t.Fatalf("the second reselection epoch allocated %d bytes; one candidate scan is %d", second, scan)
	}
}

func copyDataset(d *data.Dataset) *data.Dataset {
	return &data.Dataset{Spec: d.Spec, Labels: append([]int(nil), d.Labels...), X: d.X.Clone()}
}

// storeOn stores d's image on a fresh drive under "ds".
func storeOn(t *testing.T, d *data.Dataset) *smartssd.Device {
	t.Helper()
	dev, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := data.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreDataset("ds", img); err != nil {
		t.Fatal(err)
	}
	return dev
}

// stripeOn stripes d's image across a fresh 4+2 cluster under "ds".
func stripeOn(t *testing.T, d *data.Dataset) *smartssd.Cluster {
	t.Helper()
	c, err := smartssd.NewCluster(6)
	if err != nil {
		t.Fatal(err)
	}
	img, err := data.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StripeDataset("ds", img, d.Spec.BytesPerImage, smartssd.Placement{DataShards: 4, ParityShards: 2}); err != nil {
		t.Fatal(err)
	}
	return c
}
