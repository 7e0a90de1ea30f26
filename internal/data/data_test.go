package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nessa/internal/faults"
	"nessa/internal/tensor"
)

func TestRegistryMatchesTable1(t *testing.T) {
	want := []struct {
		name    string
		classes int
		train   int
		network string
	}{
		{"CIFAR-10", 10, 50000, "ResNet-20"},
		{"SVHN", 10, 73000, "ResNet-18"},
		{"CINIC-10", 10, 90000, "ResNet-18"},
		{"CIFAR-100", 100, 50000, "ResNet-18"},
		{"TinyImageNet", 200, 100000, "ResNet-18"},
		{"ImageNet-100", 100, 130000, "ResNet-50"},
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d datasets, want %d", len(reg), len(want))
	}
	for i, w := range want {
		got := reg[i]
		if got.Name != w.name || got.Classes != w.classes || got.Train != w.train || got.Network != w.network {
			t.Errorf("registry[%d] = %+v, want %+v", i, got, w)
		}
	}
}

func TestRegistryImageSizesMatchPaper(t *testing.T) {
	// §1/§4.4: CIFAR-scale images ~3 KB, ImageNet-100 ~0.126 MB.
	c10, _ := Lookup("CIFAR-10")
	if c10.BytesPerImage != 3*1024 {
		t.Errorf("CIFAR-10 bytes/image = %d, want 3072", c10.BytesPerImage)
	}
	in100, _ := Lookup("ImageNet-100")
	mb := float64(in100.BytesPerImage) / (1024 * 1024)
	if mb < 0.12 || mb > 0.13 {
		t.Errorf("ImageNet-100 image = %.4f MB, want ~0.126", mb)
	}
	mnist := MNIST()
	if mnist.BytesPerImage != 512 {
		t.Errorf("MNIST bytes/image = %d, want 512 (0.5 KB)", mnist.BytesPerImage)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("CIFAR-100"); !ok {
		t.Error("CIFAR-100 not found")
	}
	if _, ok := Lookup("MNIST"); !ok {
		t.Error("MNIST not found")
	}
	if _, ok := Lookup("ImageNet-1k"); !ok {
		t.Error("ImageNet-1k not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unexpected dataset found")
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	tr1, te1 := Generate(spec)
	tr2, _ := Generate(spec)

	if tr1.Len() != spec.SimTrain || te1.Len() != spec.SimTest {
		t.Fatalf("sizes = %d/%d, want %d/%d", tr1.Len(), te1.Len(), spec.SimTrain, spec.SimTest)
	}
	if tr1.X.Cols != spec.FeatureDim {
		t.Fatalf("feature dim = %d, want %d", tr1.X.Cols, spec.FeatureDim)
	}
	for i := range tr1.X.Data {
		if tr1.X.Data[i] != tr2.X.Data[i] {
			t.Fatal("generation is not deterministic for a fixed seed")
		}
	}
}

func TestGenerateBalancedClasses(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	spec.NoiseFrac = 0 // label noise perturbs exact balance
	tr, _ := Generate(spec)
	counts := make([]int, spec.Classes)
	for _, y := range tr.Labels {
		counts[y]++
	}
	for c, n := range counts {
		if n != spec.SimTrain/spec.Classes {
			t.Errorf("class %d has %d samples, want %d", c, n, spec.SimTrain/spec.Classes)
		}
	}
}

func TestGenerateLabelsInRange(t *testing.T) {
	for _, spec := range Registry() {
		tr, te := Generate(spec)
		for _, d := range []*Dataset{tr, te} {
			for i, y := range d.Labels {
				if y < 0 || y >= spec.Classes {
					t.Fatalf("%s sample %d label %d out of range", spec.Name, i, y)
				}
			}
		}
	}
}

func TestSubset(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	tr, _ := Generate(spec)
	idx := []int{5, 0, 17}
	s := tr.Subset(idx)
	if s.Len() != 3 {
		t.Fatalf("subset len = %d, want 3", s.Len())
	}
	for i, src := range idx {
		if s.Labels[i] != tr.Labels[src] {
			t.Errorf("subset label %d = %d, want %d", i, s.Labels[i], tr.Labels[src])
		}
		for j := 0; j < s.X.Cols; j++ {
			if s.X.At(i, j) != tr.X.At(src, j) {
				t.Fatalf("subset row %d differs from source row %d", i, src)
			}
		}
	}
}

func TestClassIndexPartition(t *testing.T) {
	spec, _ := Lookup("CIFAR-100")
	tr, _ := Generate(spec)
	idx := tr.ClassIndex()
	if len(idx) != spec.Classes {
		t.Fatalf("class index has %d classes, want %d", len(idx), spec.Classes)
	}
	total := 0
	for c, list := range idx {
		total += len(list)
		for _, i := range list {
			if tr.Labels[i] != c {
				t.Fatalf("index %d listed under class %d but has label %d", i, c, tr.Labels[i])
			}
		}
	}
	if total != tr.Len() {
		t.Fatalf("class index covers %d samples, want %d", total, tr.Len())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 50, 10
	tr, _ := Generate(spec)
	img, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(img)) != int64(tr.Len())*spec.BytesPerImage {
		t.Fatalf("encoded %d bytes, want %d", len(img), int64(tr.Len())*spec.BytesPerImage)
	}
	// The image bytes, pinned before Encode moved to writing each
	// record in place through putRecord.
	if got := crc32.ChecksumIEEE(img); got != 0x8e2bab50 {
		t.Fatalf("image CRC %#08x, pinned 0x8e2bab50 — the record layout moved", got)
	}
	back, err := Decode(spec, img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded %d samples, want %d", back.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if back.Labels[i] != tr.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
		for j := 0; j < tr.X.Cols; j++ {
			if back.X.At(i, j) != tr.X.At(i, j) {
				t.Fatalf("feature (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		spec := Spec{
			Name: "prop", Classes: 1 + r.Intn(20), BytesPerImage: 4096,
			SimTrain: 1 + r.Intn(20), SimTest: 1, FeatureDim: 1 + r.Intn(64),
			Spread: 0.5, Seed: seed,
		}
		tr, _ := Generate(spec)
		img, err := Encode(tr)
		if err != nil {
			return false
		}
		back, err := Decode(spec, img)
		if err != nil || back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Labels {
			if back.Labels[i] != tr.Labels[i] {
				return false
			}
		}
		for i := range tr.X.Data {
			if back.X.Data[i] != tr.X.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecordSizeTooSmall(t *testing.T) {
	spec := Spec{Name: "tiny", BytesPerImage: 8, FeatureDim: 100}
	if _, err := RecordSize(spec); err == nil {
		t.Fatal("expected error for record too small")
	}
}

func TestDecodeBadImage(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	if _, err := Decode(spec, make([]byte, 100)); err == nil {
		t.Fatal("expected error for non-multiple image length")
	}
}

func TestDecodeTruncatedRecord(t *testing.T) {
	if _, _, err := decodeRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for short record")
	}
	// Header claims more features than the buffer holds.
	buf := make([]byte, recordHeader+4)
	buf[2] = 200
	reseal(buf)
	if _, _, err := decodeRecord(buf); err == nil {
		t.Fatal("expected error for truncated features")
	}
}

// decodeRecord is the record path of a scan: VerifyRecord, then
// DecodeRecordInto into a slice sized by the checked featureCount.
func decodeRecord(buf []byte) (label int, features []float32, err error) {
	if err := VerifyRecord(buf); err != nil {
		return 0, nil, err
	}
	n, err := featureCount(buf)
	if err != nil {
		return 0, nil, err
	}
	features = make([]float32, n)
	label, err = DecodeRecordInto(buf, features)
	return label, features, err
}

// reseal rewrites a record's CRC after a test edited its bytes: CRC-32C
// is a checksum, not a MAC, so a hostile record can always carry a
// valid one.
func reseal(rec []byte) {
	binary.LittleEndian.PutUint32(rec[crcOff:], recordCRC(rec))
}

// TestDecodersRejectHostileRecords covers the three record-codec
// holes: a slice sized from an unchecked feature count, and
// Decode accepting a record of another width or a label the spec has
// no class for.
func TestDecodersRejectHostileRecords(t *testing.T) {
	spec := Spec{Name: "hostile", Classes: 3, BytesPerImage: 64, SimTrain: 4, SimTest: 1, FeatureDim: 5, Spread: 0.5, Seed: 1}
	tr, _ := Generate(spec)
	img, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(rec2 []byte) // edits record 2 of the image
		wantErr string
	}{
		{"count 0x3fffffff with a valid CRC", func(r []byte) { binary.LittleEndian.PutUint32(r[2:], 0x3fffffff) }, "record truncated"},
		{"narrower record", func(r []byte) { binary.LittleEndian.PutUint32(r[2:], 4) }, "sample 2: data: record holds 4 features"},
		{"wider record", func(r []byte) { binary.LittleEndian.PutUint32(r[2:], 6) }, "sample 2: data: record holds 6 features"},
		{"label = classes", func(r []byte) { binary.LittleEndian.PutUint16(r, 3) }, "sample 2: data: label 3"},
	}
	for _, c := range cases {
		bad := append([]byte(nil), img...)
		rec := bad[2*spec.BytesPerImage : 3*spec.BytesPerImage]
		c.mutate(rec)
		reseal(rec)
		var err error
		got := allocatedBy(func() { _, err = Decode(spec, bad) })
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Decode, %s: err = %v, want one containing %q", c.name, err, c.wantErr)
		}
		if got >= 1<<20 {
			t.Errorf("Decode, %s: allocated %d bytes", c.name, got)
		}
	}
	// One record on its own: a resealed count must fail before a
	// caller sizes the feature slice from it (4 GiB unchecked).
	huge := append([]byte(nil), img[:spec.BytesPerImage]...)
	binary.LittleEndian.PutUint32(huge[2:], 0x3fffffff)
	reseal(huge)
	got := allocatedBy(func() { _, _, err = decodeRecord(huge) })
	if err == nil || got >= 1<<20 {
		t.Errorf("decodeRecord, count 0x3fffffff: err = %v after allocating %d bytes", err, got)
	}
}

// allocatedBy reports the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeRecord runs a scan's record path (decodeRecord) and a
// decode into a caller-sized slice: a record either fails to decode or
// re-encodes to the same bytes; no step panics or allocates more than
// a small multiple of the input.
func FuzzDecodeRecord(f *testing.F) {
	spec := Spec{Name: "fuzz", Classes: 3, BytesPerImage: 64, SimTrain: 1, SimTest: 1, FeatureDim: 5, Spread: 0.5, Seed: 1}
	tr, _ := Generate(spec)
	rec, err := Encode(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:recordHeader+7])
	huge := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(huge[2:], 0x3fffffff)
	reseal(huge)
	f.Add(huge)
	into := make([]float32, spec.FeatureDim)
	f.Fuzz(func(t *testing.T, b []byte) {
		var label int
		var features []float32
		var err, intoErr error
		got := allocatedBy(func() {
			label, features, err = decodeRecord(b)
			_, intoErr = DecodeRecordInto(b, into)
		})
		if got > 16<<10+4*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		if (intoErr == nil) != (len(features) == len(into)) {
			t.Fatalf("DecodeRecordInto err = %v on a valid record of %d features", intoErr, len(features))
		}
		again := append([]byte(nil), b...)
		putRecord(again, label, features)
		// Padding is not required to be zero on the way in; header,
		// features and the CRC over them are what must round-trip.
		if end := recordHeader + 4*len(features); !bytes.Equal(again[:crcOff], b[:crcOff]) || !bytes.Equal(again[recordHeader:end], b[recordHeader:end]) {
			t.Fatalf("accepted record re-encodes differently")
		}
	})
}

func TestCRCDetectsEveryByteFlip(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 2, 1
	tr, _ := Generate(spec)
	img, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec := img[:spec.BytesPerImage]
	if err := VerifyRecord(rec); err != nil {
		t.Fatalf("fresh record failed verification: %v", err)
	}
	// Flip one bit at every byte position — header, CRC field, features,
	// and padding alike — and require detection each time.
	for i := range rec {
		rec[i] ^= 0x40
		if err := VerifyRecord(rec); !errors.Is(err, faults.ErrCorruptRecord) {
			t.Fatalf("flip at byte %d undetected (err=%v)", i, err)
		}
		if _, err := Decode(spec, img); !errors.Is(err, faults.ErrCorruptRecord) {
			t.Fatalf("Decode accepted corrupt record (flip at %d)", i)
		}
		rec[i] ^= 0x40
	}
	if err := VerifyRecord(rec); err != nil {
		t.Fatalf("restored record failed verification: %v", err)
	}
}

func TestVerifyImage(t *testing.T) {
	spec, _ := Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 8, 1
	tr, _ := Generate(spec)
	img, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyImage(img, spec.BytesPerImage); err != nil {
		t.Fatalf("clean image failed verification: %v", err)
	}
	img[5*spec.BytesPerImage+17] ^= 1
	if err := VerifyImage(img, spec.BytesPerImage); !errors.Is(err, faults.ErrCorruptRecord) {
		t.Fatalf("corrupt record 5 undetected: %v", err)
	}
	if err := VerifyImage(img, 0); err == nil {
		t.Error("zero record size accepted")
	}
	if err := VerifyImage(img[:len(img)-1], spec.BytesPerImage); err == nil {
		t.Error("non-multiple image length accepted")
	}
}

func TestPaperBytes(t *testing.T) {
	spec, _ := Lookup("ImageNet-100")
	want := int64(130000) * 129 * 1024
	if got := spec.PaperBytes(); got != want {
		t.Fatalf("PaperBytes = %d, want %d", got, want)
	}
}

func TestHardFracProducesBoundarySamples(t *testing.T) {
	// With a large HardFrac and tiny spread, hard samples sit measurably
	// farther from their own class center than clean ones.
	spec := Spec{
		Name: "hard", Classes: 4, BytesPerImage: 4096,
		SimTrain: 400, SimTest: 10, FeatureDim: 16,
		Spread: 0.05, HardFrac: 0.5, Seed: 9,
	}
	tr, _ := Generate(spec)
	// Recompute per-class means as center estimates.
	idx := tr.ClassIndex()
	var near, far int
	for c, list := range idx {
		mean := make([]float32, spec.FeatureDim)
		for _, i := range list {
			row := tr.X.Row(i)
			for j := range mean {
				mean[j] += row[j]
			}
		}
		for j := range mean {
			mean[j] /= float32(len(list))
		}
		for _, i := range list {
			d := tensor.SqDist(tr.X.Row(i), mean)
			if d < 0.05 {
				near++
			} else if d > 0.1 {
				far++
			}
		}
		_ = c
	}
	if near == 0 || far == 0 {
		t.Fatalf("expected a bimodal near/far split, got near=%d far=%d", near, far)
	}
}
