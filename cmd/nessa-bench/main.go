// nessa-bench regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	nessa-bench [-quick] [-only table2,figure5] [-csv dir] [-stride 5]
//
// Analytic artifacts (figures 1, 2, 4, 6; tables 1, 4) evaluate the
// calibrated device models instantly. Training artifacts (tables 2–3,
// figure 5, §4.3/§4.4) run real optimization: a few minutes at full
// scale, seconds with -quick. The bench-* artifacts measure this host,
// write results/BENCH_*.json and are held to gates: the run exits 1
// after listing every gate that failed, 2 on an artifact id it does not
// know.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"nessa/internal/bench"
)

// ablationGroup is the -only id that selects every ablation-* artifact.
const ablationGroup = "ablations"

func main() {
	registry := bench.Artifacts()
	var files []string
	for _, a := range registry {
		if a.File != "" {
			files = append(files, a.File)
		}
	}
	var p bench.Params
	flag.BoolVar(&p.Quick, "quick", false, "run training artifacts at reduced scale")
	only := flag.String("only", "", "comma-separated artifact ids ("+strings.Join(validIDs(registry), ", ")+" = every ablation-*); empty = all but seed-variance")
	csvDir := flag.String("csv", "", "also write each artifact as CSV into this directory")
	flag.IntVar(&p.Stride, "stride", 5, "epoch stride for figure5 rows")
	flag.IntVar(&p.Seeds, "seeds", 3, "seed count for the seed-variance artifact")
	flag.StringVar(&p.ResultsDir, "results", "results", "directory for machine-readable benchmark artifacts ("+strings.Join(files, ", ")+")")
	flag.Parse()

	selected, err := resolve(registry, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-bench:", err)
		os.Exit(2)
	}
	failed, blurb := 0, ""
	for _, a := range selected {
		if a.Blurb != "" && a.Blurb != blurb { // artifacts sharing one run announce it once
			blurb = a.Blurb
			fmt.Fprintln(os.Stderr, blurb)
		}
		tab, gates, err := a.Run(p)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.ID, err))
		}
		if a.File != "" {
			fmt.Fprintln(os.Stderr, "wrote", filepath.Join(p.ResultsDir, a.File))
		}
		for _, g := range gates {
			verdict := "gate ok"
			if !g.OK {
				verdict = "FAILED gate"
				failed++
			}
			fmt.Fprintf(os.Stderr, "nessa-bench: %s %s: %s", verdict, a.ID, g.Name)
			if g.Detail != "" {
				fmt.Fprintf(os.Stderr, " — %s", g.Detail)
			}
			fmt.Fprintln(os.Stderr)
		}
		if err := emit(tab, *csvDir); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d gate(s) failed", failed))
	}
}

// resolve maps the -only list onto registry entries, in registry order.
// An empty list is everything that does not wait to be asked for; an id
// the registry does not hold is an error, not an empty run.
func resolve(registry []bench.Artifact, only string) ([]bench.Artifact, error) {
	valid := validIDs(registry)
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown artifact id %q; valid ids: %s", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var out []bench.Artifact
	for _, a := range registry {
		named := want[a.ID] || (want[ablationGroup] && strings.HasPrefix(a.ID, "ablation-"))
		if named || (len(want) == 0 && !a.OnRequest) {
			out = append(out, a)
		}
	}
	return out, nil
}

// validIDs is everything -only accepts: the registry's ids, then the
// ablation group.
func validIDs(registry []bench.Artifact) []string {
	var ids []string
	for _, a := range registry {
		ids = append(ids, a.ID)
	}
	return append(ids, ablationGroup)
}

// emit renders a table to stdout and, when asked, as CSV.
func emit(t *bench.Table, csvDir string) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nessa-bench:", err)
	os.Exit(1)
}
