package storage

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"nessa/internal/faults"
)

func newTestSSD(t *testing.T) *SSD {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestSSD(t)
	payload := []byte("hello smartssd world")
	if _, err := s.Write("obj", payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.ReadAt("obj", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
}

func TestPartialRead(t *testing.T) {
	s := newTestSSD(t)
	payload := []byte("0123456789")
	if _, err := s.Write("obj", payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.ReadAt("obj", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "3456" {
		t.Fatalf("partial read = %q, want 3456", got)
	}
}

func TestReadMissingObject(t *testing.T) {
	s := newTestSSD(t)
	_, _, err := s.ReadAt("ghost", 0, 1)
	if !errors.Is(err, faults.ErrNotFound) {
		t.Fatalf("missing object error = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("ghost"); !errors.Is(err, faults.ErrNotFound) {
		t.Fatal("Size of missing object should be ErrNotFound")
	}
}

func TestReadOutOfRange(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 10))
	cases := []struct{ off, length int64 }{
		{5, 10},              // past the end
		{-1, 2},              // negative offset
		{0, -1},              // negative length
		{11, 0},              // offset beyond the object
		{1, 1<<63 - 2},       // length that would overflow off+length
		{1<<62 + 1, 1 << 62}, // offset+length would overflow int64
	}
	for _, c := range cases {
		if _, _, err := s.ReadAt("obj", c.off, c.length); !errors.Is(err, faults.ErrOutOfRange) {
			t.Errorf("ReadAt(%d,%d) = %v, want ErrOutOfRange", c.off, c.length, err)
		}
	}
}

func TestInjectedTransientError(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 1024))
	s.SetInjector(faults.NewInjector(faults.Profile{Seed: 1, TransientRate: 1}))
	_, d, err := s.ReadAt("obj", 0, 1024)
	if !errors.Is(err, faults.ErrTransientIO) {
		t.Fatalf("error = %v, want ErrTransientIO", err)
	}
	if d != DefaultConfig().CommandLatency {
		t.Fatalf("failed command charged %v, want command latency %v", d, DefaultConfig().CommandLatency)
	}
	s.SetInjector(nil)
	if _, _, err := s.ReadAt("obj", 0, 1024); err != nil {
		t.Fatalf("detached injector still failing reads: %v", err)
	}
}

func TestInjectedCorruptionIsSilent(t *testing.T) {
	s := newTestSSD(t)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	s.Write("obj", payload)
	s.SetInjector(faults.NewInjector(faults.Profile{Seed: 2, CorruptRate: 1}))
	got, _, err := s.ReadAt("obj", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("corruption did not alter the payload")
	}
	// The stored extent itself stays clean: a later fault-free read is intact.
	s.SetInjector(nil)
	clean, _, _ := s.ReadAt("obj", 0, 256)
	if !bytes.Equal(clean, payload) {
		t.Fatal("corruption leaked into the stored extent")
	}
}

func TestInjectedLatencySpike(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 1024))
	_, clean, err := s.ReadAt("obj", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	spike := 3 * time.Millisecond
	s.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, LatencyRate: 1, LatencySpike: spike}))
	_, slow, err := s.ReadAt("obj", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if slow != clean+spike {
		t.Fatalf("spiked read took %v, want %v + %v", slow, clean, spike)
	}
}

func TestCapacityEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 64 * 1024
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("big", make([]byte, 128*1024)); err == nil {
		t.Fatal("expected device-full error")
	}
}

func TestRewriteReusesExtent(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 1000))
	used := s.Used()
	s.Write("obj", make([]byte, 500)) // smaller rewrite fits in place
	if s.Used() != used {
		t.Fatalf("rewrite grew allocation: %d -> %d", used, s.Used())
	}
	got, _, err := s.ReadAt("obj", 0, 500)
	if err != nil || len(got) != 500 {
		t.Fatalf("rewrite read failed: %v", err)
	}
}

// The drive keeps the slice a Write hands it and never writes into it:
// a rewrite in place swaps the slice, so the first writer's bytes stay
// as they were.
func TestWriteKeepsCallerSlice(t *testing.T) {
	s := newTestSSD(t)
	first := bytes.Repeat([]byte{7}, 1000)
	s.Write("obj", first)
	s.Write("obj", bytes.Repeat([]byte{9}, 500))
	if !bytes.Equal(first, bytes.Repeat([]byte{7}, 1000)) {
		t.Fatal("rewrite wrote into the first writer's slice")
	}
	got, _, err := s.ReadAt("obj", 0, 500)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 500)) {
		t.Fatalf("rewrite read %v, %v", got[:4], err)
	}
}

func TestPageAlignment(t *testing.T) {
	s := newTestSSD(t)
	s.Write("a", []byte{1})
	if s.Used() != DefaultConfig().PageSize {
		t.Fatalf("1-byte object used %d bytes, want one page (%d)", s.Used(), DefaultConfig().PageSize)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 2*1024*1024))
	_, small, _ := s.ReadAt("obj", 0, 1024)
	_, large, _ := s.ReadAt("obj", 0, 2*1024*1024)
	if large <= small {
		t.Fatalf("2 MB read (%v) not slower than 1 KB read (%v)", large, small)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	s := newTestSSD(t)
	payload := make([]byte, 4*1024*1024)
	wt, err := s.Write("obj", payload)
	if err != nil {
		t.Fatal(err)
	}
	_, rt, err := s.ReadAt("obj", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if wt <= rt {
		t.Fatalf("write (%v) should be slower than read (%v) due to write amplification", wt, rt)
	}
}

func TestInternalBandwidthMatchesSpec(t *testing.T) {
	cfg := DefaultConfig()
	// 8 channels × 400 MB/s = 3.2 GB/s, above the 3 GB/s P2P peak so the
	// link, not the array, is the bottleneck — as on the real device.
	if got := cfg.InternalBW(); got != 3.2e9 {
		t.Fatalf("internal BW = %v, want 3.2e9", got)
	}
	if cfg.Capacity != 3840*1000*1000*1000 {
		t.Fatalf("capacity = %d, want 3.84 TB", cfg.Capacity)
	}
}

func TestReadTimeFormula(t *testing.T) {
	s := newTestSSD(t)
	s.Write("obj", make([]byte, 3_200_000))
	_, d, _ := s.ReadAt("obj", 0, 3_200_000)
	// 3.2 MB at 3.2 GB/s = 1 ms, plus 60 µs command latency.
	want := time.Millisecond + 60*time.Microsecond
	if d != want {
		t.Fatalf("read time = %v, want %v", d, want)
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := newTestSSD(t)
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if _, err := s.Write("p", payload); err != nil {
			return false
		}
		got, _, err := s.ReadAt("p", 0, int64(len(payload)))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for zero config")
	}
}

// TestReadIntoDestination pins ReadRecordsInto's slot and payload
// contract. A read of a materialized object that draws no corruption,
// contiguous or gathered, writes nothing: each payload is a view of its
// stored record, equal to it, aliasing it, with its capacity clipped to
// its length, whatever the slot is, and the slot keeps what it held.
// A virtual object and a corrupted draw (one flipped bit) are assembled
// in the slot — in place when its capacity covers the read, whatever
// its length and prior contents, and in a slot grown to the read's
// length otherwise (nil included) — one stride-byte window per record,
// the caller's to write. The payloads land in the caller's list. Every
// read is charged exactly what the same read into an empty slot costs
// on a twin drive under the same fault schedule.
func TestReadIntoDestination(t *testing.T) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	orig := bytes.Clone(payload)
	drive := func(prof faults.Profile) *SSD {
		s := newTestSSD(t)
		if _, err := s.Write("obj", payload); err != nil {
			t.Fatal(err)
		}
		if err := s.PutVirtual("virt", 256, counterFill); err != nil {
			t.Fatal(err)
		}
		s.SetInjector(faults.NewInjector(prof))
		return s
	}
	stored := func(obj string, at, n int64) []byte {
		if obj == "virt" {
			b := make([]byte, n)
			counterFill(at, b)
			return b
		}
		return payload[at : at+n]
	}
	const stale = 0xEE
	dirty := func(n, capacity int) []byte {
		b := make([]byte, n, capacity)
		for i := range b[:capacity] {
			b[:capacity][i] = stale
		}
		return b
	}
	reads := []struct {
		name        string
		obj         string
		off, stride int64
		recs        []int
	}{
		{"contiguous", "obj", 50, 100, oneRecord},
		{"one listed record", "obj", 6, 50, []int{3}},
		{"gather", "obj", 6, 50, []int{3, 0}},
		{"virtual", "virt", 50, 100, oneRecord},
		{"virtual gather", "virt", 6, 50, []int{3, 0}},
	}
	dsts := []struct {
		name string
		dst  func(read int) []byte
	}{
		{"nil", func(int) []byte { return nil }},
		{"empty with room", func(int) []byte { return dirty(0, 300) }},
		{"longer than the read", func(int) []byte { return dirty(280, 300) }},
		{"exact capacity", func(n int) []byte { return dirty(3, n) }},
		{"one byte short", func(n int) []byte { return dirty(n-1, n-1) }},
	}
	profiles := []struct {
		name    string
		prof    faults.Profile
		corrupt bool
	}{
		{"clean", faults.Profile{}, false},
		{"corrupted", faults.Profile{Seed: 2, CorruptRate: 1}, true},
	}
	for _, dc := range dsts {
		t.Run(dc.name, func(t *testing.T) {
			for _, pc := range profiles {
				s, twin := drive(pc.prof), drive(pc.prof)
				for _, rd := range reads {
					label := pc.name + " " + rd.name
					n := int(rd.stride) * len(rd.recs)
					dst := dc.dst(n)
					slot := dst
					list := make([][]byte, 1, 4)
					got, dur, err := s.ReadRecordsInto(rd.obj, rd.off, rd.stride, rd.recs, &slot, list)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if _, want, _ := twin.ReadRecordsInto(rd.obj, rd.off, rd.stride, rd.recs, new([]byte), nil); dur != want {
						t.Fatalf("%s: charged %v, the same read into an empty slot %v", label, dur, want)
					}
					if len(got) != len(rd.recs) || &got[0] != &list[0] {
						t.Fatalf("%s: %d payloads for %d records, or not in the caller's list", label, len(got), len(rd.recs))
					}
					var want []byte
					for _, r := range rd.recs {
						want = append(want, stored(rd.obj, rd.off+int64(r)*rd.stride, rd.stride)...)
					}
					if flipped := bitsDiffering(bytes.Join(got, nil), want); flipped != 0 && !pc.corrupt || flipped != 1 && pc.corrupt {
						t.Fatalf("%s: payload differs from the stored bytes in %d bits", label, flipped)
					}
					for i, p := range got {
						if cap(p) != len(p) || len(p) != int(rd.stride) {
							t.Fatalf("%s: payload %d has len %d, cap %d for a %d-byte record", label, i, len(p), cap(p), rd.stride)
						}
					}
					if rd.obj == "obj" && !pc.corrupt {
						for i, r := range rd.recs {
							if &got[i][0] != &payload[rd.off+int64(r)*rd.stride] {
								t.Fatalf("%s: clean payload %d is not a view of stored record %d", label, i, r)
							}
						}
						if len(slot) != len(dst) || cap(slot) != cap(dst) || dst != nil && slices.ContainsFunc(dst[:cap(dst)], func(b byte) bool { return b != stale }) {
							t.Fatalf("%s: a clean read wrote into the slot", label)
						}
						continue
					}
					kept := cap(dst) > 0 && &slot[:1][0] == &dst[:1][0]
					if fits := cap(dst) >= n; kept != fits || cap(slot) < n {
						t.Fatalf("%s: slot kept = %v with cap(dst) %d for a %d-byte read (now cap %d)", label, kept, cap(dst), n, cap(slot))
					}
					for i, p := range got {
						if &p[0] != &slot[:n][i*int(rd.stride)] {
							t.Fatalf("%s: assembled payload %d is not window %d of the slot", label, i, i)
						}
					}
					// An assembled payload is the caller's to write.
					for _, p := range got {
						clear(p)
					}
					if !bytes.Equal(payload, orig) {
						t.Fatalf("%s: an assembled payload aliases the stored bytes", label)
					}
				}
			}
		})
	}

	s := drive(faults.Profile{Seed: 2, TransientRate: 1})
	slot := dirty(0, 256)
	if got, _, err := s.ReadRecordsInto("obj", 0, 256, oneRecord, &slot, nil); !errors.Is(err, faults.ErrTransientIO) || len(got) != 0 || slot[:1][0] != stale {
		t.Fatalf("transient failure returned (%v, %v), want (no payload, ErrTransientIO) and the slot untouched", got, err)
	}
}

// bitsDiffering counts the bits in which a and b differ; a length
// mismatch counts as every bit of the longer one.
func bitsDiffering(a, b []byte) int {
	if len(a) != len(b) {
		return 8 * max(len(a), len(b))
	}
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}
