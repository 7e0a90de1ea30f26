package simtime

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock()
		prev := c.Now()
		for _, s := range steps {
			now := c.Advance(time.Duration(s) * time.Microsecond)
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock().Advance(-time.Second)
}

func TestAccountantBuckets(t *testing.T) {
	a := NewAccountant()
	a.AddTime("gpu.compute", 2*time.Second)
	a.AddTime("gpu.compute", 3*time.Second)
	a.AddTime("io.load", time.Second)
	a.AddBytes("p2p", 100)
	a.AddBytes("host", 50)

	if got := a.Time("gpu.compute"); got != 5*time.Second {
		t.Errorf("gpu.compute = %v, want 5s", got)
	}
	var total time.Duration
	for _, b := range a.TimeBuckets() {
		total += b.Duration
	}
	if total != 6*time.Second {
		t.Errorf("time buckets sum to %v, want 6s", total)
	}
	var bytes int64
	for _, b := range a.ByteBuckets() {
		bytes += b.Bytes
	}
	if bytes != 150 {
		t.Errorf("byte buckets sum to %d, want 150", bytes)
	}
	if got := a.Bytes("missing"); got != 0 {
		t.Errorf("missing bucket = %d, want 0", got)
	}
}

// TimeBuckets and ByteBuckets fold a map into a slice, so only their
// sort makes the order stable. Past 8 entries the runtime's map no
// longer iterates as a rotation of insertion order, so an unsorted
// listing cannot pass by luck.
func TestAccountantBucketsSorted(t *testing.T) {
	const n = 32
	a := NewAccountant()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b-%02d", (i*7)%n) // insertion order is not name order
		a.AddTime(name, time.Second)
		a.AddBytes(name, 1)
	}
	var timeNames, byteNames []string
	for _, b := range a.TimeBuckets() {
		timeNames = append(timeNames, b.Name)
	}
	for _, b := range a.ByteBuckets() {
		byteNames = append(byteNames, b.Name)
	}
	for _, c := range []struct {
		fn    string
		names []string
	}{{"TimeBuckets", timeNames}, {"ByteBuckets", byteNames}} {
		if len(c.names) != n || !slices.IsSorted(c.names) {
			t.Errorf("%s names = %v, want %d sorted names", c.fn, c.names, n)
		}
	}
}

func TestAccountantNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	NewAccountant().AddTime("x", -time.Second)
}

func TestAccountantConcurrentUse(t *testing.T) {
	a := NewAccountant()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				a.AddTime("t", time.Millisecond)
				a.AddBytes("b", 1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := a.Time("t"); got != 800*time.Millisecond {
		t.Errorf("concurrent time sum = %v, want 800ms", got)
	}
	if got := a.Bytes("b"); got != 800 {
		t.Errorf("concurrent byte sum = %d, want 800", got)
	}
}
