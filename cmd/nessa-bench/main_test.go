package main

import (
	"strings"
	"testing"

	"nessa/internal/bench"
)

func TestResolve(t *testing.T) {
	registry := bench.Artifacts()
	ablations := 0
	for _, a := range registry {
		if strings.HasPrefix(a.ID, "ablation-") {
			ablations++
		}
	}
	for _, tc := range []struct {
		only    string
		want    int    // artifacts selected
		has     string // one id that must be among them
		lacks   string // one id that must not
		errName string // the id an error must name
	}{
		{only: "", want: len(registry) - 1, has: "table3-starved", lacks: "seed-variance"},
		{only: "seed-variance", want: 1, has: "seed-variance"},
		{only: "ablations", want: ablations, has: "ablation-scaleout", lacks: "table1"},
		{only: " Bench-Recovery ,table1", want: 2, has: "bench-recovery", lacks: "bench-faults"},
		{only: "ablations,ablation-eps", want: ablations, has: "ablation-eps"},
		{only: "bench-recovry", errName: `"bench-recovry"`},
		{only: "table1,nope", errName: `"nope"`},
	} {
		got, err := resolve(registry, tc.only)
		if tc.errName != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errName) || !strings.Contains(err.Error(), "bench-recovery") {
				t.Errorf("-only %q: error %v, want one naming %s and listing the valid ids", tc.only, err, tc.errName)
			}
			continue
		}
		if err != nil || len(got) != tc.want {
			t.Errorf("-only %q: %d artifacts (err %v), want %d", tc.only, len(got), err, tc.want)
		}
		ids := map[string]bool{}
		for _, a := range got {
			ids[a.ID] = true
		}
		if !ids[tc.has] || ids[tc.lacks] {
			t.Errorf("-only %q selected %v: want %q in, %q out", tc.only, ids, tc.has, tc.lacks)
		}
	}
	// Registry order, whatever order -only names them in.
	got, _ := resolve(registry, "figure1,table1")
	if len(got) != 2 || got[0].ID != "table1" {
		t.Errorf("selection not in registry order: %v", got)
	}
}
