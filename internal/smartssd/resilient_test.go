package smartssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nessa/internal/data"
	"nessa/internal/faults"
)

// storeImage writes a small encoded dataset and returns its image and
// record size.
func storeImage(t *testing.T, d *Device) ([]byte, int64) {
	t.Helper()
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 24, 4
	tr, _ := data.Generate(spec)
	img, err := data.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreDataset("ds", img); err != nil {
		t.Fatal(err)
	}
	return img, spec.BytesPerImage
}

func verifier(rec int64) func([]byte) error {
	return func(buf []byte) error { return data.VerifyImage(buf, rec) }
}

func TestReadResilientCleanPathSingleAttempt(t *testing.T) {
	d := newDevice(t)
	img, rec := storeImage(t, d)
	buf, st, err := d.ReadResilient("ds", 0, int64(len(img)), len(img)/int(rec), verifier(rec), RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("payload mismatch")
	}
	if st.Attempts != 1 || st.Retries != 0 || st.HostFallback {
		t.Fatalf("clean read stats = %+v, want one attempt, no recovery", st)
	}
	if d.Acct.Time("retry.backoff") != 0 {
		t.Fatal("clean read charged backoff time")
	}
}

func TestReadResilientRetriesTransientFaults(t *testing.T) {
	d := newDevice(t)
	img, rec := storeImage(t, d)
	// ~50 % of commands fail; this seed's schedule fails the first two
	// issues and succeeds on the third, exercising the retry loop.
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 7, TransientRate: 0.5}))
	buf, st, err := d.ReadResilient("ds", 0, int64(len(img)), 24, verifier(rec), RetryPolicy{})
	if err != nil {
		t.Fatalf("resilient read failed: %v (stats %+v)", err, st)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("payload mismatch after retries")
	}
	if st.Transient == 0 || st.Retries == 0 {
		t.Fatalf("stats %+v recorded no recovery despite 50%% fault rate", st)
	}
	if d.Acct.Time("retry.backoff") <= 0 {
		t.Fatal("retries did not charge backoff time")
	}
}

func TestReadResilientDetectsAndRereadsCorruption(t *testing.T) {
	d := newDevice(t)
	img, rec := storeImage(t, d)
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 6, CorruptRate: 0.6}))
	buf, st, err := d.ReadResilient("ds", 0, int64(len(img)), 24, verifier(rec), RetryPolicy{MaxAttempts: 8})
	if err != nil {
		t.Fatalf("resilient read failed: %v (stats %+v)", err, st)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("returned payload still corrupt")
	}
	if st.Corrupt == 0 {
		t.Fatalf("stats %+v detected no corruption despite 60%% rate", st)
	}
}

func TestReadResilientFallsBackToHostOnLinkDown(t *testing.T) {
	d := newDevice(t)
	img, rec := storeImage(t, d)
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 7, LinkDownRate: 1}))
	buf, st, err := d.ReadResilient("ds", 0, int64(len(img)), 24, verifier(rec), RetryPolicy{})
	if err != nil {
		t.Fatalf("read with dead P2P link failed: %v", err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("payload mismatch on host path")
	}
	if !st.HostFallback {
		t.Fatalf("stats %+v did not record host fallback", st)
	}
	if d.Acct.Bytes("host.read") != int64(len(img)) {
		t.Fatalf("host path moved %d bytes, want %d", d.Acct.Bytes("host.read"), len(img))
	}
	if d.Acct.Bytes("p2p.read") != 0 {
		t.Fatal("bytes charged to the dead P2P link")
	}
}

func TestReadResilientExhaustionWrapsLastError(t *testing.T) {
	d := newDevice(t)
	img, _ := storeImage(t, d)
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 8, TransientRate: 1}))
	_, st, err := d.ReadResilient("ds", 0, int64(len(img)), 24, nil, RetryPolicy{})
	if !errors.Is(err, faults.ErrTransientIO) {
		t.Fatalf("exhaustion error = %v, want wrapped ErrTransientIO", err)
	}
	if st.Attempts != DefaultRetryPolicy().MaxAttempts {
		t.Fatalf("attempts = %d, want %d", st.Attempts, DefaultRetryPolicy().MaxAttempts)
	}
}

func TestReadResilientPermanentErrorNotRetried(t *testing.T) {
	d := newDevice(t)
	storeImage(t, d)
	_, st, err := d.ReadResilient("missing", 0, 64, 1, nil, RetryPolicy{})
	if !errors.Is(err, faults.ErrNotFound) {
		t.Fatalf("error = %v, want ErrNotFound", err)
	}
	if st.Attempts != 1 {
		t.Fatalf("permanent error retried %d times", st.Attempts-1)
	}
	if _, _, err := d.ReadResilient("ds", -1, 64, 1, nil, RetryPolicy{}); !errors.Is(err, faults.ErrOutOfRange) {
		t.Fatalf("negative offset error = %v, want ErrOutOfRange", err)
	}
	if _, _, err := d.ReadResilientHost(new([]byte), nil, "ds", []int{0}, -5, nil, RetryPolicy{}); !errors.Is(err, faults.ErrOutOfRange) {
		t.Fatalf("host-path negative length error = %v, want ErrOutOfRange", err)
	}
}

func TestReadResilientHostIgnoresLinkDown(t *testing.T) {
	d := newDevice(t)
	img, rec := storeImage(t, d)
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 9, LinkDownRate: 1}))
	all := make([]int, 24)
	for i := range all {
		all[i] = i
	}
	ps, st, err := d.ReadResilientHost(new([]byte), nil, "ds", all, rec, verifier(rec), RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(ps, nil), img) || st.Attempts != 1 {
		t.Fatalf("host-pinned read perturbed by P2P link faults: %+v", st)
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if (RetryPolicy{}).normalize() != DefaultRetryPolicy() {
		t.Error("zero policy does not normalize to the default")
	}
}

// TestReadResilientIntoLandsInCallerBuffer: on every recovery path a
// payload the host assembles is in the caller's slot — a virtual
// object's synthesized bytes, a corrupted payload that no verify
// rejected (one flipped bit) — while a clean read of a materialized
// object is a view of the stored image, capacity clipped to its length,
// that leaves the slot untouched (only a rejected corrupted attempt
// writes there). Either way the read costs exactly
// what ReadResilient costs — same stats, same simulated clock — on a
// twin device under the same fault schedule.
func TestReadResilientIntoLandsInCallerBuffer(t *testing.T) {
	cases := []struct {
		name       string
		prof       faults.Profile
		pol        RetryPolicy
		virtual    bool
		unverified bool
	}{
		{"clean", faults.Profile{}, RetryPolicy{}, false, false},
		{"transient retries", faults.Profile{Seed: 7, TransientRate: 0.5}, RetryPolicy{}, false, false},
		{"corruption re-reads", faults.Profile{Seed: 6, CorruptRate: 0.6}, RetryPolicy{MaxAttempts: 8}, false, false},
		{"host fallback", faults.Profile{Seed: 7, LinkDownRate: 1}, RetryPolicy{}, false, false},
		{"virtual object", faults.Profile{Seed: 7, TransientRate: 0.5}, RetryPolicy{}, true, false},
		{"corrupt and unverified", faults.Profile{Seed: 6, CorruptRate: 1}, RetryPolicy{MaxAttempts: 1}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, twin := newDevice(t), newDevice(t)
			img, rec := storeImage(t, d)
			storeImage(t, twin)
			name := "ds"
			if tc.virtual {
				name = "virtual"
				fill := func(off int64, buf []byte) { copy(buf, img[off:]) }
				for _, dev := range []*Device{d, twin} {
					if err := dev.StoreVirtualDataset(name, int64(len(img)), fill); err != nil {
						t.Fatal(err)
					}
				}
			}
			verify := verifier(rec)
			if tc.unverified {
				verify = nil
			}
			d.SetInjector(faults.NewInjector(tc.prof))
			twin.SetInjector(faults.NewInjector(tc.prof))
			dst := make([]byte, 0, len(img)+16)
			slot := dst
			buf, st, err := d.ReadResilientInto(&slot, name, 0, int64(len(img)), 24, verify, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			if &slot[:1][0] != &dst[:1][0] {
				t.Fatal("a read replaced a slot that had room")
			}
			inDst := &buf[0] == &dst[:1][0]
			switch {
			case tc.unverified:
				if !inDst || bytes.Equal(buf, img) {
					t.Fatal("a corrupted payload must be flipped in the caller's buffer")
				}
			case tc.virtual:
				if !inDst || !bytes.Equal(buf, img) {
					t.Fatal("a virtual object's payload must be its bytes, in the caller's buffer")
				}
			default:
				if &buf[0] != &img[0] || len(buf) != len(img) || cap(buf) != len(buf) {
					t.Fatalf("a clean read is not a capacity-clipped view of the stored image (len %d, cap %d)", len(buf), cap(buf))
				}
				// A rejected corrupted attempt was assembled in dst.
				if st.Corrupt == 0 && !bytes.Equal(dst[:cap(dst)], make([]byte, cap(dst))) {
					t.Fatal("a clean read wrote into the caller's buffer")
				}
			}
			_, wantSt, err := twin.ReadResilient(name, 0, int64(len(img)), 24, verify, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			if st != wantSt || d.Clock.Now() != twin.Clock.Now() {
				t.Fatalf("Into: stats %+v clock %v; allocating read: stats %+v clock %v", st, d.Clock.Now(), wantSt, twin.Clock.Now())
			}
		})
	}
}

// TestReadRecordsIntoCostsTheContiguousRead: a gathered read of a
// scattered record list returns exactly those records in list order —
// each a capacity-clipped view of its stored record once the read comes
// back clean, in the caller's list, with the slot written only by a
// rejected corrupted attempt — and on every recovery path costs what a
// contiguous read of as many records costs — same stats, same simulated
// clock, same P2P bytes — on a twin device under the same fault
// schedule.
func TestReadRecordsIntoCostsTheContiguousRead(t *testing.T) {
	recs := []int{17, 3, 4, 22, 0, 9}
	cases := []struct {
		name string
		prof faults.Profile
		pol  RetryPolicy
	}{
		{"clean", faults.Profile{}, RetryPolicy{}},
		{"transient retries", faults.Profile{Seed: 7, TransientRate: 0.5}, RetryPolicy{}},
		{"corruption re-reads", faults.Profile{Seed: 6, CorruptRate: 0.6}, RetryPolicy{MaxAttempts: 8}},
		{"host fallback", faults.Profile{Seed: 7, LinkDownRate: 1}, RetryPolicy{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, twin := newDevice(t), newDevice(t)
			img, rec := storeImage(t, d)
			storeImage(t, twin)
			d.SetInjector(faults.NewInjector(tc.prof))
			twin.SetInjector(faults.NewInjector(tc.prof))
			var slot []byte
			list := make([][]byte, 0, len(recs))
			ps, st, err := d.ReadRecordsInto(&slot, list, "ds", recs, rec, verifier(rec), tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) != len(recs) || &ps[0] != &list[:1][0] {
				t.Fatalf("%d payloads for %d records, or not in the caller's list", len(ps), len(recs))
			}
			for i, r := range recs {
				if &ps[i][0] != &img[int64(r)*rec] || len(ps[i]) != int(rec) || cap(ps[i]) != len(ps[i]) {
					t.Fatalf("payload %d is not a capacity-clipped view of stored record %d", i, r)
				}
			}
			if (slot != nil) != (st.Corrupt > 0) {
				t.Fatalf("slot grown = %v after %d rejected corrupted attempts", slot != nil, st.Corrupt)
			}
			_, wantSt, err := twin.ReadResilient("ds", 0, int64(len(recs))*rec, len(recs), verifier(rec), tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			if st != wantSt || d.Clock.Now() != twin.Clock.Now() || d.Acct.Bytes("p2p.read") != twin.Acct.Bytes("p2p.read") {
				t.Fatalf("gathered: stats %+v clock %v; contiguous: stats %+v clock %v", st, d.Clock.Now(), wantSt, twin.Clock.Now())
			}
		})
	}
	d := newDevice(t)
	_, rec := storeImage(t, d)
	for _, bad := range [][]int{{-1}, {24}, {0, 1 << 62}} {
		if _, _, err := d.ReadRecordsInto(new([]byte), nil, "ds", bad, rec, nil, RetryPolicy{}); !errors.Is(err, faults.ErrOutOfRange) {
			t.Errorf("records %v: err = %v, want wrapped faults.ErrOutOfRange", bad, err)
		}
	}
}
