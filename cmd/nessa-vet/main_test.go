package main

import (
	"strings"
	"testing"

	"nessa/internal/analysis"
)

// TestListShowsBothSuites pins the -list output contract: every
// analyzer of both the source and compiler suites appears, each with
// its suite column, so -run users can discover every valid name from
// one listing.
func TestListShowsBothSuites(t *testing.T) {
	var b strings.Builder
	printList(&b)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := len(analysis.All()) + len(analysis.CompilerAll())
	if len(lines) != want {
		t.Fatalf("printList wrote %d lines, want %d:\n%s", len(lines), want, out)
	}
	byName := make(map[string]string)
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("list line has no suite column: %q", line)
		}
		byName[fields[0]] = fields[1]
	}
	for _, a := range analysis.All() {
		if byName[a.Name] != "source" {
			t.Errorf("analyzer %s: suite column %q, want %q", a.Name, byName[a.Name], "source")
		}
	}
	for _, a := range analysis.CompilerAll() {
		if byName[a.Name] != "compiler" {
			t.Errorf("analyzer %s: suite column %q, want %q", a.Name, byName[a.Name], "compiler")
		}
	}
}

// TestSelectAnalyzersPairsRunWithSuite pins the -run / -compiler
// pairing: a name from the suite the flags did not select is a usage
// error that says which flag is missing, never a silent empty run.
func TestSelectAnalyzersPairsRunWithSuite(t *testing.T) {
	cases := []struct {
		name     string
		run      string
		compiler bool
		want     []string // analyzer names on success
		wantErr  string   // substring of the error otherwise
	}{
		{name: "source default is the whole source suite", want: names(analysis.All())},
		{name: "compiler default is the whole compiler suite", compiler: true, want: names(analysis.CompilerAll())},
		{name: "source names without -compiler", run: "maporder, hotpath", want: []string{"maporder", "hotpath"}},
		{name: "compiler names with -compiler", run: "bcecheck,inlinegate", compiler: true, want: []string{"bcecheck", "inlinegate"}},
		{name: "compiler name without -compiler", run: "bcecheck,inlinegate", wantErr: "bcecheck: a compiler-suite analyzer; add -compiler"},
		{name: "source name with -compiler", run: "hotpath", compiler: true, wantErr: "hotpath: a source-suite analyzer; drop -compiler"},
		{name: "mixed list", run: "hotpath,inlinegate", wantErr: "inlinegate: a compiler-suite analyzer; add -compiler"},
		{name: "unknown name", run: "hotpaht", wantErr: `unknown analyzer "hotpaht"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := selectAnalyzers(c.run, c.compiler)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("selectAnalyzers(%q, %v) error = %v, want one containing %q", c.run, c.compiler, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g := names(got); strings.Join(g, ",") != strings.Join(c.want, ",") {
				t.Errorf("selectAnalyzers(%q, %v) = %v, want %v", c.run, c.compiler, g, c.want)
			}
		})
	}
}

func names(az []*analysis.Analyzer) []string {
	out := make([]string, len(az))
	for i, a := range az {
		out[i] = a.Name
	}
	return out
}
