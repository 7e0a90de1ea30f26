package bench

import "testing"

// failedGates reports every gate of an artifact that does not hold.
func failedGates(t *testing.T, gates []Gate) {
	t.Helper()
	for _, g := range gates {
		if !g.OK {
			t.Errorf("gate %q failed: %s", g.Name, g.Detail)
		}
	}
}

// The artifact's shape and the properties its gates read, at a small
// spec so the test stays fast. The clean-path overhead gate is a host
// timing and is left to nessa-bench.
func TestFaultBenchArtifact(t *testing.T) {
	spec := DefaultFaultBenchSpec(true)
	spec.Train, spec.Epochs, spec.Reps = 256, 4, 2
	spec.ChaosSeeds = spec.ChaosSeeds[:1]
	res, gates, err := RunFaultBench(spec)
	if err != nil {
		t.Fatal(err)
	}
	failedGates(t, gates[1:])
	if len(gates) != 4 {
		t.Errorf("%d gates, want 4", len(gates))
	}
	for _, r := range res.ChaosRuns {
		if !r.Completed || r.Epochs != spec.Epochs {
			t.Errorf("chaos seed %d: completed=%v epochs=%d, want full run", r.Seed, r.Completed, r.Epochs)
		}
	}
	if res.RawMS <= 0 || res.ResilientMS <= 0 {
		t.Errorf("non-positive timings: raw %.2f resilient %.2f", res.RawMS, res.ResilientMS)
	}

	tab := faultBenchTable(res)
	if tab.ID != "bench-faults" || len(tab.Rows) != len(res.ChaosRuns) {
		t.Errorf("table id %q with %d rows, want bench-faults with %d", tab.ID, len(tab.Rows), len(res.ChaosRuns))
	}
}
