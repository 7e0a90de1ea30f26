// Command nessa-e2e is the repo's end-to-end benchmark driver: one
// workload per process, whole core.Run sessions timed from outside.
//
//	nessa-e2e -workload nessa_default -seed 1 -seconds 12 -trace 0
//
// prints a context line (environment, spreads, warnings) and then, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. -trace 0 reports the
// end-to-end metrics; -trace 1 re-runs the workload as a staged epoch
// loop and reports the per-layer metrics instead (-trace-out also
// writes the spans as Chrome trace-event JSON). -workload all and
// -selfcheck re-execute the binary once per workload so that every
// workload owns its process and its peak memory. The exit status is
// non-zero when a session fails or any correctness check does.
//
// internal/bench/e2e/README.md defines every workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"

	"nessa/internal/bench/e2e"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seeds the dataset, the trainer and the controller")
	seconds := flag.Float64("seconds", 12, "how long an untraced run keeps starting timed sessions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the staged controller")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans here as Chrome trace-event JSON")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice, untraced and traced, and compare the pairs against the benchmark's own bounds")
	smoke := flag.Bool("smoke", false, "shrink every workload to well under a second (the tier-1 test's scale)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "nessa-e2e: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *smoke)
	case *workload == "all":
		for _, w := range e2e.Workloads(*smoke) {
			if _, err = child(w.Name, *seed, *seconds, *trace, *smoke, true); err != nil {
				break
			}
		}
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *traceOut, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-e2e:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its context
// line and result line.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string, smoke bool) error {
	w, err := e2e.Lookup(name, smoke)
	if err != nil {
		return err
	}
	var res *e2e.Result
	var info *e2e.Info
	if traced {
		var spans []e2e.Span
		if res, info, spans, err = e2e.RunTraced(w, seed); err != nil {
			return err
		}
		if traceOut != "" {
			if err := e2e.WriteChromeTrace(traceOut, spans); err != nil {
				return err
			}
		}
	} else if res, info, err = e2e.RunUntraced(w, seed, seconds); err != nil {
		return err
	}
	for _, msg := range append(info.Failures, info.Warnings...) {
		fmt.Fprintf(os.Stderr, "nessa-e2e: %s: %s\n", name, msg)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness checks failed", name)
	}
	return nil
}

// child runs one workload in a fresh process and returns its result.
// With echo set the child's standard output is passed through.
func child(name string, seed uint64, seconds float64, trace int, smoke, echo bool) (*e2e.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		if _, werr := os.Stdout.Write(out); werr != nil {
			return nil, werr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res e2e.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line of output is not a result: %w", name, err)
	}
	return &res, nil
}

// runSelfcheck measures every workload twice with the same build and
// seed and holds the pairs to the benchmark's own rules: a measured
// end-to-end metric may differ by no more than its regression bound, a
// deterministic one and every per-layer count not at all. A benchmark
// that cannot agree with itself cannot judge a change.
func runSelfcheck(seed uint64, seconds float64, smoke bool) error {
	bad := 0
	twice := func(name string, trace int) (a, b *e2e.Result, err error) {
		if a, err = child(name, seed, seconds, trace, smoke, false); err == nil {
			b, err = child(name, seed, seconds, trace, smoke, false)
		}
		return a, b, err
	}
	for _, w := range e2e.Workloads(smoke) {
		first, second, err := twice(w.Name, 0)
		if err != nil {
			return err
		}
		for _, d := range e2e.EndToEnd {
			a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			gap := math.Abs(a-b) / math.Abs(a)
			limit, verdict := d.Bound, "ok"
			if e2e.Deterministic[d.Name] {
				limit = 0
			}
			if gap > limit {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %-8s gap %7.3f%%  limit %5.1f%%  %s\n",
				w.Name, d.Name, a, b, d.Unit, 100*gap, 100*limit, verdict)
		}
		if first, second, err = twice(w.Name, 1); err != nil {
			return err
		}
		for _, d := range e2e.PerLayer {
			a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			if d.Unit == "count" && a != b {
				bad++
				fmt.Printf("%-14s %-24s %14.6g %14.6g %-8s counts differ  FAIL\n", w.Name, d.Name, a, b, d.Unit)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric pairs disagree", bad)
	}
	fmt.Println("selfcheck: two runs of this build agree within the benchmark's bounds")
	return nil
}
