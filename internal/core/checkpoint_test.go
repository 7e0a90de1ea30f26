package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nessa/internal/data"
	"nessa/internal/nn"
	"nessa/internal/trainer"
)

// The three wire formats, pinned by hash at the commit before the
// shared codec (internal/wire) replaced the three hand-rolled ones: the
// checkpoint the 3-epoch tiny session emits after epoch 2, and the
// model and optimizer blobs inside it. A change to any of these is a
// format change and needs a version bump, not a new constant.
const (
	pinnedCheckpointSHA = "581c7234dce805817313b58eda47ae1cb956f0f9e2b927bde4c369d162ff5246"
	pinnedModelSHA      = "75985226ec6429f40c3d2ee02f0d93f6740fb828e33506351ecb1dd01d1367a4"
	pinnedSGDSHA        = "9d30a45c6818e7dc4a5d75baec59e3e8421a5e965134a323a9fd310cf545b984"
)

func pinCfg() trainer.Config {
	cfg := tinyCfg()
	cfg.Epochs = 3
	return cfg
}

// checkpointAt2 runs a tinyOptions session under cfg and returns its
// epoch-2 checkpoint with the offsets of the embedded model and
// optimizer blobs (each preceded by its uint32 length).
func checkpointAt2(t testing.TB, tr, te *data.Dataset, cfg trainer.Config) (blob []byte, modelOff, sgdOff int) {
	t.Helper()
	opt := tinyOptions()
	opt.CheckpointSink = func(epoch int, b []byte) error {
		if epoch == 2 {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	if _, err := Run(tr, te, cfg, opt); err != nil {
		t.Fatal(err)
	}
	fresh := trainer.New(tr.Spec, cfg)
	sgdOff = len(blob) - len(nn.MarshalSGD(fresh.Opt))
	modelOff = sgdOff - 4 - len(nn.MarshalModel(fresh.Model))
	return blob, modelOff, sgdOff
}

func TestWireFormatsPinned(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	blob, modelOff, sgdOff := checkpointAt2(t, tr, te, pinCfg())
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"checkpoint", pinnedCheckpointSHA, blob},
		{"model blob", pinnedModelSHA, blob[modelOff : sgdOff-4]},
		{"optimizer blob", pinnedSGDSHA, blob[sgdOff:]},
	} {
		if sum := sha256.Sum256(c.got); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s (%d bytes) hashes to %x, pinned %s — the wire format moved", c.name, len(c.got), sum, c.want)
		}
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

// hostileModelBlob is the 28-byte NSSA header whose rows field made
// the pre-wire decoder ask for 16 GiB before reading a weight.
func hostileModelBlob(in uint32) []byte {
	var b []byte
	for _, v := range []uint32{0x4e535341, 1, in, 5, 1, 0x3fffffff, in} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestResumeSurvivesHostileCheckpoints: whatever Options.Resume holds,
// Run returns an error, never panics, and never sizes an allocation
// from a count in the input.
func TestResumeSurvivesHostileCheckpoints(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	blob, modelOff, sgdOff := checkpointAt2(t, tr, te, pinCfg())
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	// Field offsets, walked from the layout comment in checkpoint.go.
	const candOff = 56
	subsetOff := candOff + 4 + 4*int(binary.LittleEndian.Uint32(blob[candOff:]))
	histOff := subsetOff + 4 + 8*int(binary.LittleEndian.Uint32(blob[subsetOff:]))
	type hostile struct {
		name string
		buf  []byte
	}
	cases := []hostile{
		{"bare hostile model blob", hostileModelBlob(16)},
		{"model rows = 0x3fffffff", patch(modelOff+20, 0x3fffffff)},
		{"model layers = 0xffffffff", patch(modelOff+16, 0xffffffff)},
		{"model length = 0xffffffff", patch(modelOff-4, 0xffffffff)},
		{"optimizer rows = 0x3fffffff", patch(sgdOff+16, 0x3fffffff)},
		{"optimizer length = 0xffffffff", patch(sgdOff-4, 0xffffffff)},
		{"candidate count = 0xffffffff", patch(candOff, 0xffffffff)},
		{"subset count = 0xfffffffe", patch(subsetOff, 0xfffffffe)},
		{"epoch = 0xffffffff", patch(8, 0xffffffff)},
		{"history presence flag = 2", patch(histOff+4, 2)},
	}
	for off := 0; off < len(blob); off += 4 {
		cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", off), blob[:off]})
	}
	opt := tinyOptions()
	for _, c := range cases {
		opt.Resume = c.buf
		var err error
		got := allocatedBy(func() { _, err = Run(tr, te, pinCfg(), opt) })
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", c.name, got)
		}
	}
}

// FuzzRestore: a checkpoint either fails to restore or restores into a
// session whose own checkpoint is the input, byte for byte; it never
// panics and never allocates more than the session's fixed cost plus a
// small multiple of the input. The session is a 48-sample one so the
// corpus stays small.
func FuzzRestore(f *testing.F) {
	spec := tinySpec()
	spec.SimTrain, spec.SimTest, spec.FeatureDim = 48, 16, 4
	tr, te := data.Generate(spec)
	cfg := pinCfg()
	cfg.Hidden = []int{4}
	blob, modelOff, _ := checkpointAt2(f, tr, te, cfg)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(hostileModelBlob(4))
	patched := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(patched[modelOff+20:], 0x3fffffff)
	f.Add(patched)
	opt := tinyOptions()
	if err := validateOptions(&opt); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		opt := opt
		opt.Resume = b
		var s *session
		var err error
		if got := allocatedBy(func() { s, err = newSession(tr, te, cfg, opt) }); got > 64<<10+16*uint64(len(b)) {
			t.Fatalf("restoring %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		if again := s.checkpoint(s.epoch); !bytes.Equal(again, b) {
			t.Fatalf("restored session re-checkpoints to %d different bytes (input %d)", len(again), len(b))
		}
	})
}

// rewindow returns blob with its loss-history rings re-laid at `to`
// slots each — zero slots appended, or trailing ones dropped, which must
// be unwritten — and the offset of the first stored ring's pos field.
func rewindow(t *testing.T, blob []byte, n, to int) (out []byte, firstRing int) {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(blob[off:])) }
	// Field offsets, walked from the layout comment in checkpoint.go.
	const candOff = 56
	subsetOff := candOff + 4 + 4*u32(candOff)
	histOff := subsetOff + 4 + 8*u32(subsetOff)
	from := u32(histOff)
	out = binary.LittleEndian.AppendUint32(append([]byte(nil), blob[:histOff]...), uint32(to))
	off := histOff + 4
	for i := 0; i < n; i++ {
		present := u32(off)
		out = append(out, blob[off:off+4]...)
		off += 4
		if present == 0 {
			continue
		}
		if firstRing == 0 {
			firstRing = len(out)
		}
		out = append(out, blob[off:off+8+4*min(from, to)]...)
		for j := from; j < to; j++ {
			out = append(out, 0, 0, 0, 0)
		}
		for j := to; j < from; j++ {
			if u32(off+8+4*j) != 0 {
				t.Fatalf("ring %d: dropping written slot %d", i, j)
			}
		}
		off += 8 + 4*from
	}
	return append(out, blob[off:]...), firstRing
}

// TestResumeAcrossWindowClamp: the loss-history window is
// min(BiasWindow, Epochs+1), so runs that differ only in Epochs store
// different windows. A checkpoint whose rings never wrapped restores
// under either window, and the restored session re-checkpoints to the
// bytes its own run would have written; a ring that does not fit the
// narrower window is still refused.
func TestResumeAcrossWindowClamp(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := pinCfg() // 3 epochs: window min(5, 4) = 4
	opt := tinyOptions()
	opt.BiasWindow = 5
	var narrow []byte
	opt.CheckpointSink = func(epoch int, b []byte) error {
		if epoch == 2 {
			narrow = append([]byte(nil), b...)
		}
		return nil
	}
	if _, err := Run(tr, te, cfg, opt); err != nil {
		t.Fatal(err)
	}
	opt.CheckpointSink = nil
	if err := validateOptions(&opt); err != nil {
		t.Fatal(err)
	}
	restore := func(buf []byte, cfg trainer.Config) ([]byte, error) {
		opt := opt
		opt.Resume = buf
		s, err := newSession(tr, te, cfg, opt)
		if err != nil {
			return nil, err
		}
		return s.checkpoint(s.epoch), nil
	}
	wide, ring := rewindow(t, narrow, tr.Len(), 5)
	if ring == 0 {
		t.Fatal("the epoch-2 checkpoint stores no loss-history ring")
	}

	got, err := restore(wide, cfg)
	if err != nil {
		t.Fatalf("5-slot checkpoint into a 4-slot session: %v", err)
	}
	if !bytes.Equal(got, narrow) {
		t.Errorf("5-slot checkpoint restored into a 4-slot session re-checkpoints to different bytes")
	}
	longer := cfg
	longer.Epochs = 4 // window min(5, 5) = 5
	got, err = restore(narrow, longer)
	if err != nil {
		t.Fatalf("4-slot checkpoint into a 5-slot session: %v", err)
	}
	if !bytes.Equal(got, wide) {
		t.Errorf("4-slot checkpoint restored into a 5-slot session re-checkpoints to different bytes")
	}

	full := append([]byte(nil), wide...)
	binary.LittleEndian.PutUint32(full[ring:], 0)   // pos
	binary.LittleEndian.PutUint32(full[ring+4:], 5) // count: 5 losses cannot fit 4 slots
	if _, err := restore(full, cfg); err == nil || !strings.Contains(err.Error(), "loss-history window 5, configured 4") {
		t.Errorf("a 5-loss ring restored into a 4-slot session: err = %v", err)
	}
}
