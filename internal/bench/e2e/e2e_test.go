package e2e

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// checkResult holds a run's result to the table it prints from: the
// correctness checks passed, no gain is claimed, and exactly the
// declared metrics were printed, each in its declared unit.
func checkResult(t *testing.T, res *Result, info *Info, defs []MetricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, info.Failures)
	}
	if info.Claim != nil {
		t.Errorf("benchmark claims %q; it defines the measurement and claims nothing", *info.Claim)
	}
	var got, want []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	for _, d := range defs {
		want = append(want, d.Name)
		if v := res.Metrics[d.Name]; v.Unit != d.Unit {
			t.Errorf("%s printed in %q, declared in %q", d.Name, v.Unit, d.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("printed metrics %v, declared %v", got, want)
	}
}

// TestStagedMatchesCoreRun pins the staged controller to session.run. A
// traced run at smoke scale is correct only if, on the workload's option
// set, the staged loop reproduces core.Run's loss, accuracy and subset
// series bit for bit at both pool sizes, counts the same recovery work,
// and leaves a well-formed span tree; the test adds that self times are
// non-negative and that every epoch has its span. A refactor of
// session.run that changes the order or arguments of a layer call fails
// here until staged.go follows it.
func TestStagedMatchesCoreRun(t *testing.T) {
	for _, w := range Workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			res, info, spans, err := RunTraced(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, info, PerLayer)
			epochs := 0
			for i, self := range SelfTimes(spans) {
				if self < 0 {
					t.Errorf("span %d %q has negative self time %v", i, spans[i].Name, self)
				}
				if spans[i].Name == spanEpoch {
					epochs++
				}
			}
			if epochs != w.Epochs {
				t.Errorf("%d epoch spans, want %d", epochs, w.Epochs)
			}
			if res.Metrics["parallel.identical"].Value != 1 {
				t.Error("staged series depend on the worker count")
			}
		})
	}
}

// TestUntracedEmitsEndToEnd runs every workload's untraced mode at smoke
// scale: the warm-up/timed bit-identity, kill-schedule and state-budget
// checks must pass, and no end-to-end metric may be zero (the benchmark
// contract compares each as a share of the parent's).
func TestUntracedEmitsEndToEnd(t *testing.T) {
	for _, w := range Workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			res, info, err := RunUntraced(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, info, EndToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract needs it non-zero", name, v.Value)
				}
			}
		})
	}
}

func TestSelfTimesUsesUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Name: "scan", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "chunk", Start: 1 * ms, End: 5 * ms},
		{ID: 2, Parent: 0, Track: 1, Name: "verify", Start: 3 * ms, End: 7 * ms}, // overlaps chunk
		{ID: 3, Parent: 0, Name: "chunk", Start: 8 * ms, End: 9 * ms},
	}
	self := SelfTimes(spans)
	if self[0] != 3*ms { // covered: [1,7] and [8,9]
		t.Errorf("parent self time %v, want 3ms", self[0])
	}
	if self[1] != 4*ms || self[2] != 4*ms || self[3] != 1*ms {
		t.Errorf("leaf self times %v", self[1:])
	}
	if err := CheckTree(spans); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
}

func TestCheckTreeRejectsMalformed(t *testing.T) {
	ms := time.Millisecond
	cases := map[string][]Span{
		"unclosed": {{ID: 0, Parent: -1, Start: 0, End: -1}},
		"child leaves parent": {
			{ID: 0, Parent: -1, Start: 0, End: 5 * ms},
			{ID: 1, Parent: 0, Start: 4 * ms, End: 6 * ms},
		},
		"children outlast parent": {
			{ID: 0, Parent: -1, Start: 0, End: 5 * ms},
			{ID: 1, Parent: 0, Start: 0, End: 4 * ms},
			{ID: 2, Parent: 0, Start: 2 * ms, End: 5 * ms},
		},
		"child in another run": {
			{ID: 0, Parent: -1, Run: 1, Start: 0, End: 5 * ms},
			{ID: 1, Parent: 0, Run: 2, Start: 1 * ms, End: 2 * ms},
		},
	}
	for name, spans := range cases {
		if CheckTree(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
