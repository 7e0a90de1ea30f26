// Package simtime provides the discrete simulated clock and accounting
// log shared by every device model in the repository (SSD, SmartSSD
// links, FPGA kernel, GPU). All simulated durations are expressed as
// time.Duration values on a virtual timeline that is completely
// decoupled from wall-clock time, so experiments are deterministic and
// fast regardless of how much "hardware time" they model.
package simtime

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is a monotonically advancing simulated clock. The zero value is
// ready to use and starts at instant zero.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock positioned at instant zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated instant as an offset from zero.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new instant.
// Advancing by a negative duration panics: simulated time, like real
// time, only moves forward.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("simtime: cannot advance clock by negative duration %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Accountant aggregates simulated time and simulated bytes moved into
// named buckets (e.g. "p2p.read", "gpu.compute"). It is how experiments
// answer questions such as "what fraction of epoch time was data
// movement?" and "how many bytes crossed the host interconnect?".
type Accountant struct {
	mu    sync.Mutex
	time  map[string]time.Duration
	bytes map[string]int64
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		time:  make(map[string]time.Duration),
		bytes: make(map[string]int64),
	}
}

// AddTime charges d of simulated time to bucket name.
func (a *Accountant) AddTime(name string, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative time charge %v to %q", d, name))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.time[name] += d
}

// AddBytes charges n simulated bytes to bucket name.
func (a *Accountant) AddBytes(name string, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("simtime: negative byte charge %d to %q", n, name))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bytes[name] += n
}

// Time reports the accumulated simulated time in bucket name.
func (a *Accountant) Time(name string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.time[name]
}

// Bytes reports the accumulated simulated bytes in bucket name.
func (a *Accountant) Bytes(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes[name]
}

// TimeBuckets returns the time buckets sorted by name, for stable
// reporting.
func (a *Accountant) TimeBuckets() []TimeBucket {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TimeBucket, 0, len(a.time))
	for k, v := range a.time {
		out = append(out, TimeBucket{Name: k, Duration: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByteBuckets returns the byte buckets sorted by name.
func (a *Accountant) ByteBuckets() []ByteBucket {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ByteBucket, 0, len(a.bytes))
	for k, v := range a.bytes {
		out = append(out, ByteBucket{Name: k, Bytes: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TimeBucket is a named accumulation of simulated time.
type TimeBucket struct {
	Name     string
	Duration time.Duration
}

// ByteBucket is a named accumulation of simulated bytes.
type ByteBucket struct {
	Name  string
	Bytes int64
}
