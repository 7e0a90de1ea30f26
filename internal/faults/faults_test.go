package faults

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if f := in.FlashRead(); f.Transient || f.Corrupt || f.Extra != 0 {
		t.Fatalf("nil injector injected %+v", f)
	}
	if in.LinkDown() {
		t.Fatal("nil injector dropped the link")
	}
	if in.Stall() != 0 {
		t.Fatal("nil injector stalled")
	}
	if got := in.BackoffJitter(time.Millisecond); got != time.Millisecond {
		t.Fatalf("nil injector jittered backoff to %v", got)
	}
	in.CorruptPayload(make([]byte, 8)) // must not panic
	if in.DeviceLoss(0, 1<<40) || in.Counts() != nil {
		t.Fatal("nil injector counted faults")
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	in := NewInjector(Profile{Seed: 9})
	buf := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		if f := in.FlashRead(); f.Transient || f.Corrupt || f.Extra != 0 {
			t.Fatalf("zero profile injected %+v at op %d", f, i)
		}
		if in.LinkDown() || in.Stall() != 0 {
			t.Fatalf("zero profile injected at op %d", i)
		}
	}
	if n := in.Counts(); len(n) != 0 {
		t.Fatalf("zero profile counted faults: %v", n)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("payload mutated")
	}
}

// Same seed + same operation sequence must produce the identical fault
// schedule and counters — the reproducibility contract of chaos runs.
func TestDeterministicSchedule(t *testing.T) {
	prof := DefaultChaosProfile()
	run := func() (string, map[Class]int64) {
		in := NewInjector(prof)
		var log bytes.Buffer
		buf := make([]byte, 32)
		for i := 0; i < 500; i++ {
			f := in.FlashRead()
			if f.Corrupt {
				in.CorruptPayload(buf)
			}
			fmt.Fprintf(&log, "%v|%v|%v|%v|%v|%x\n", f.Transient, f.Corrupt, f.Extra,
				in.LinkDown(), in.Stall(), buf)
		}
		return log.String(), in.Counts()
	}
	log1, c1 := run()
	log2, c2 := run()
	if log1 != log2 {
		t.Fatal("fault schedules diverged for identical seed and op sequence")
	}
	for _, c := range AllClasses() {
		if c1[c] != c2[c] {
			t.Fatalf("class %s counts diverged: %d vs %d", c, c1[c], c2[c])
		}
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in := NewInjector(Profile{Seed: 7, TransientRate: 0.25, CorruptRate: 0.25,
		LatencyRate: 0.25, LatencySpike: time.Millisecond})
	const n = 4000
	for i := 0; i < n; i++ {
		f := in.FlashRead()
		if f.Corrupt {
			in.CorruptPayload(make([]byte, 4))
		}
	}
	for _, c := range []Class{ClassTransient, ClassLatency} {
		got := float64(in.Count(c)) / n
		if got < 0.20 || got > 0.30 {
			t.Errorf("%s fired at rate %.3f, want ~0.25", c, got)
		}
	}
	// Corruption is suppressed by a same-op transient failure, so its
	// effective rate is ~0.25·0.75.
	if got := float64(in.Count(ClassCorrupt)) / n; got < 0.14 || got > 0.24 {
		t.Errorf("corrupt fired at rate %.3f, want ~0.19", got)
	}
}

func TestCorruptPayloadFlipsExactlyOneBit(t *testing.T) {
	in := NewInjector(Profile{Seed: 3, CorruptRate: 1})
	orig := []byte{0xAA, 0x55, 0x00, 0xFF}
	buf := append([]byte(nil), orig...)
	in.CorruptPayload(buf)
	diffBits := 0
	for i := range buf {
		d := buf[i] ^ orig[i]
		for ; d != 0; d &= d - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	in := NewInjector(Profile{Seed: 11})
	base := 8 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := in.BackoffJitter(base)
		if j < base/2 || j >= base {
			t.Fatalf("jittered backoff %v outside [%v,%v)", j, base/2, base)
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	wrapped := fmt.Errorf("smartssd: shard 3: %w", ErrLinkDown)
	if !errors.Is(wrapped, ErrLinkDown) {
		t.Fatal("wrapped sentinel not matched by errors.Is")
	}
	for _, err := range []error{ErrTransientIO, ErrCorruptRecord, ErrLinkDown} {
		if !IsDegradable(fmt.Errorf("layer: %w", err)) {
			t.Errorf("%v should be degradable", err)
		}
	}
	for _, err := range []error{ErrDeviceLost, ErrOutOfRange, ErrNotFound, errors.New("boom")} {
		if IsDegradable(fmt.Errorf("layer: %w", err)) {
			t.Errorf("%v should be fatal", err)
		}
	}
}
