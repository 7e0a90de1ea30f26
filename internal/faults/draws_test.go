package faults

import (
	"testing"
	"time"
)

// The injector's reproducibility contract: every hook consumes a fixed
// number of PRNG draws regardless of which faults actually fire —
// FlashRead exactly three, LinkDown and Stall one each, CorruptPayload
// two. If a draw ever becomes conditional on an outcome, two schedules
// with different rates desynchronize and everything downstream of the
// shared stream (retry jitter, later fault decisions) diverges. These
// tests pin the contract by aligning streams across outcome-flipping
// profiles, so a conditional draw fails CI rather than silently
// reshuffling chaos schedules.

// jitterProbe drains k BackoffJitter values — a pure window onto the
// injector's PRNG stream position.
func jitterProbe(in *Injector, k int) []time.Duration {
	out := make([]time.Duration, k)
	for i := range out {
		out[i] = in.BackoffJitter(time.Second)
	}
	return out
}

// assertAligned asserts two same-seed injectors sit at the same stream
// position after their diverging histories.
func assertAligned(t *testing.T, a, b *Injector, what string) {
	t.Helper()
	ja, jb := jitterProbe(a, 8), jitterProbe(b, 8)
	for i := range ja {
		if ja[i] != jb[i] {
			t.Fatalf("%s: PRNG streams desynchronized: jitter[%d] = %v vs %v — a hook's draw count depends on its outcome", what, i, ja[i], jb[i])
		}
	}
}

func TestFlashReadAlwaysThreeDraws(t *testing.T) {
	const seed = 99
	// never injects a read fault; always injects every read fault.
	quiet := NewInjector(Profile{Seed: seed})
	loud := NewInjector(Profile{
		Seed:          seed,
		TransientRate: 1,
		CorruptRate:   1,
		LatencyRate:   1,
		LatencySpike:  time.Millisecond,
	})
	for i := 0; i < 32; i++ {
		if f := quiet.FlashRead(); f.Transient || f.Corrupt || f.Extra != 0 {
			t.Fatalf("zero-rate profile injected a fault: %+v", f)
		}
		if f := loud.FlashRead(); !f.Transient {
			t.Fatalf("rate-1 profile skipped the transient fault: %+v", f)
		}
	}
	assertAligned(t, quiet, loud, "FlashRead")
}

func TestLinkDownSingleDrawPerCall(t *testing.T) {
	const seed = 7
	quiet := NewInjector(Profile{Seed: seed})
	loud := NewInjector(Profile{Seed: seed, LinkDownRate: 1})
	for i := 0; i < 32; i++ {
		if quiet.LinkDown() {
			t.Fatal("zero-rate profile dropped the link")
		}
		if !loud.LinkDown() {
			t.Fatal("rate-1 profile kept the link up")
		}
	}
	assertAligned(t, quiet, loud, "LinkDown")
}

func TestStallSingleDrawPerCall(t *testing.T) {
	const seed = 13
	quiet := NewInjector(Profile{Seed: seed})
	loud := NewInjector(Profile{Seed: seed, StallRate: 1, StallFor: time.Millisecond})
	for i := 0; i < 32; i++ {
		if quiet.Stall() != 0 {
			t.Fatal("zero-rate profile stalled")
		}
		if loud.Stall() == 0 {
			t.Fatal("rate-1 profile did not stall")
		}
	}
	assertAligned(t, quiet, loud, "Stall")
}

func TestCorruptPayloadFixedDraws(t *testing.T) {
	const seed = 21
	a := NewInjector(Profile{Seed: seed})
	b := NewInjector(Profile{Seed: seed})
	// Different buffer contents, same lengths: the two draws (index,
	// bit) must consume identically.
	bufA := make([]byte, 64)
	bufB := make([]byte, 64)
	for i := range bufB {
		bufB[i] = 0xFF
	}
	for i := 0; i < 16; i++ {
		a.CorruptPayload(bufA)
		b.CorruptPayload(bufB)
	}
	assertAligned(t, a, b, "CorruptPayload")
}

// TestDeviceLossDrawContract pins that DeviceLoss draws nothing: a
// scripted kill schedule leaves the shared stream exactly where a
// no-loss profile leaves it.
func TestDeviceLossDrawContract(t *testing.T) {
	const seed = 55
	quiet := NewInjector(Profile{Seed: seed})
	scripted := NewInjector(Profile{Seed: seed, Kills: []DeviceKill{{Device: 2, AfterScans: 4}}})
	for i := 0; i < 32; i++ {
		if quiet.DeviceLoss(2, int64(i)) {
			t.Fatal("no-loss profile lost a device")
		}
		got := scripted.DeviceLoss(2, int64(i))
		if want := int64(i) >= 4; got != want {
			t.Fatalf("scripted kill at scan %d: lost=%v, want %v", i, got, want)
		}
	}
	assertAligned(t, quiet, scripted, "DeviceLoss scripted")
}

// TestDeviceLossSticky verifies loss is permanent and counted once per
// device, and that a zero or negative scan count never fires.
func TestDeviceLossSticky(t *testing.T) {
	in := NewInjector(Profile{Seed: 1, Kills: []DeviceKill{
		{Device: 0, AfterScans: 2},
		{Device: 1, AfterScans: 0},
		{Device: 2, AfterScans: -3},
	}})
	if in.DeviceLoss(0, 1) {
		t.Fatal("device 0 died before its scan trigger")
	}
	if !in.DeviceLoss(0, 2) {
		t.Fatal("device 0 survived its scan trigger")
	}
	// Sticky: trigger condition no longer holds, device stays dead.
	if !in.DeviceLoss(0, 0) {
		t.Fatal("device 0 came back from the dead")
	}
	if got := in.Count(ClassDeviceLost); got != 1 {
		t.Fatalf("ClassDeviceLost count = %d, want 1 (once per device)", got)
	}
	for _, d := range []int{1, 2, 7} {
		if in.DeviceLoss(d, 100) {
			t.Fatalf("device %d was lost without a positive scan trigger", d)
		}
	}
}

// TestMixedHookSequenceAligned drives the full hook mix through two
// outcome-flipped schedules and requires stream alignment at the end —
// the whole-injector form of the fixed-draws contract.
func TestMixedHookSequenceAligned(t *testing.T) {
	const seed = 4242
	quiet := NewInjector(Profile{Seed: seed})
	loud := NewInjector(Profile{
		Seed:          seed,
		TransientRate: 1,
		CorruptRate:   1,
		LatencyRate:   1,
		LatencySpike:  time.Millisecond,
		LinkDownRate:  1,
		StallRate:     1,
		StallFor:      time.Millisecond,
	})
	buf := make([]byte, 8)
	for i := 0; i < 24; i++ {
		quiet.FlashRead()
		loud.FlashRead()
		quiet.LinkDown()
		loud.LinkDown()
		quiet.Stall()
		loud.Stall()
		quiet.CorruptPayload(buf)
		loud.CorruptPayload(buf)
	}
	assertAligned(t, quiet, loud, "mixed hook sequence")
}
