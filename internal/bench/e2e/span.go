package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (-1 for a run's root); Run groups the spans
// of one session. Track 0 is the controller goroutine; the streaming
// scan's prefetch goroutine records on track 1, so its spans may
// overlap their track-0 siblings.
type Span struct {
	ID, Parent int
	Run, Track int
	Name       string
	Start, End time.Duration // since the recorder was created
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark ends. Parents are
// passed explicitly rather than kept on a stack, so spans may be opened
// from more than one goroutine.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []Span
}

// NewRecorder starts an empty recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// BeginRun opens the root span of a new session and returns its ID.
func (r *Recorder) BeginRun(name string) int {
	r.mu.Lock()
	r.run++
	r.mu.Unlock()
	return r.Begin(-1, name)
}

// Begin opens a span on the controller track.
func (r *Recorder) Begin(parent int, name string) int { return r.BeginOn(0, parent, name) }

// BeginOn opens a span on the given track.
func (r *Recorder) BeginOn(track, parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Track: track, Name: name, Start: time.Since(r.t0), End: -1})
	return id
}

// End closes span id and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	return s.Dur()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (the prefetch track runs beside the controller), so coverage is the
// union of the child intervals, clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.Dur() - covered
	}
	return self
}

// CheckTree reports the first way the span list fails to be a
// well-formed forest: an unclosed span, a child outside its parent's
// interval or run, or controller-track children that together outlast
// their parent.
func CheckTree(spans []Span) error {
	sum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never ended", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Run != p.Run {
			return fmt.Errorf("span %d %q is in run %d, its parent %q in run %d", s.ID, s.Name, s.Run, p.Name, p.Run)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] leaves its parent %q [%v,%v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Track == 0 {
			sum[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		if sum[s.ID] > s.Dur() {
			return fmt.Errorf("children of span %d %q sum to %v, longer than its %v", s.ID, s.Name, sum[s.ID], s.Dur())
		}
	}
	return nil
}

// traceEvent is one Chrome trace-event "complete" record; the file
// opens in chrome://tracing and ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"` // run
	TID  int            `json:"tid"` // track
	Args map[string]int `json:"args"`
}

// WriteChromeTrace writes the spans as Chrome trace-event JSON.
func WriteChromeTrace(path string, spans []Span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur()) / float64(time.Microsecond),
			PID: s.Run, TID: s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
