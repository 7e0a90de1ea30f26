package e2e

import (
	"fmt"
	"sort"
)

// MetricDef declares one metric. BENCHMARK.json repeats these tables;
// the contract test keeps the two in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// EndToEnd are the metrics a user of the system sees, printed by an
// untraced run. A bound is the share of the parent commit's median by
// which the metric may worsen before a change counts as a regression.
// Each is at least three times the quartile spread the metric showed
// over ten seeds on the seed tree (README.md, "Baseline"); the wall
// clock of a shared 2-core sandbox moves by 5-12 % between runs of one
// build, which is why the timed metrics sit at the contract's ceiling.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"epoch_wall_s", "s", "lower", 0.25},
	{"sim_epoch_s", "s", "lower", 0.05},
	{"host_link_mb_per_epoch", "MB", "lower", 0.05},
	{"final_acc", "fraction", "higher", 0.15},
	{"objective_vs_batch", "ratio", "higher", 0.02},
	{"alloc_mb_per_epoch", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// PerLayer are the metrics of single layers, printed by a traced run.
// The name's prefix is the layer. "_s" metrics are host seconds per
// epoch unless the README says otherwise; counts are run totals.
var PerLayer = []MetricDef{
	{"core.epoch_self_s", "s", "lower", 0},
	{"core.reselect_epochs", "count", "lower", 0},
	{"core.pool_records", "count", "lower", 0},
	{"core.subset_records", "count", "lower", 0},
	{"core.trace_coverage", "ratio", "higher", 0},
	{"core.trace_overhead_frac", "fraction", "lower", 0},
	{"quant.quantize_s", "s", "lower", 0},
	{"quant.model_bytes", "count", "lower", 0},
	{"smartssd.scan_s", "s", "lower", 0},
	{"smartssd.scan_mb", "MB", "lower", 0},
	{"smartssd.scan_attempts", "count", "lower", 0},
	{"smartssd.retries", "count", "lower", 0},
	{"smartssd.scan_sim_s", "s", "lower", 0},
	{"smartssd.frac_of_link_bound", "ratio", "higher", 0},
	{"smartssd.ship_sim_s", "s", "lower", 0},
	{"smartssd.ship_mb", "MB", "lower", 0},
	{"smartssd.feedback_sim_s", "s", "lower", 0},
	{"smartssd.degraded_reads", "count", "lower", 0},
	{"smartssd.reconstructed_mb", "MB", "lower", 0},
	{"smartssd.rebuild_s", "s", "lower", 0},
	{"smartssd.rebuild_sim_s", "s", "lower", 0},
	{"storage.readat_mb_per_s", "MB/s", "higher", 0},
	{"data.verify_s", "s", "lower", 0},
	{"data.verify_mb_per_s", "MB/s", "higher", 0},
	{"data.gather_s", "s", "lower", 0},
	{"data.generate_s", "s", "lower", 0},
	{"data.encode_s", "s", "lower", 0},
	{"data.decode_records_per_s", "1/s", "higher", 0},
	{"erasure.reconstruct_s", "s", "lower", 0},
	{"erasure.reconstruct_mb_per_s.one_loss", "MB/s", "higher", 0},
	{"erasure.reconstruct_mb_per_s.two_loss", "MB/s", "higher", 0},
	{"erasure.encode_mb_per_s", "MB/s", "higher", 0},
	{"faults.injected_kills", "count", "lower", 0},
	{"faults.fallback_epochs", "count", "lower", 0},
	{"nn.forward_s", "s", "lower", 0},
	{"nn.forward_gflops", "GFLOP/s", "higher", 0},
	{"nn.embed_s", "s", "lower", 0},
	{"selection.select_s", "s", "lower", 0},
	{"selection.objective_epoch0", "objective", "higher", 0},
	{"streaming.push_s", "s", "lower", 0},
	{"streaming.push_records_per_s", "1/s", "higher", 0},
	{"streaming.finish_s", "s", "lower", 0},
	{"streaming.active_levels", "count", "lower", 0},
	{"streaming.reservoir_rows", "count", "lower", 0},
	{"streaming.state_bytes", "count", "lower", 0},
	{"trainer.train_s", "s", "lower", 0},
	{"trainer.train_samples_per_s", "1/s", "higher", 0},
	{"trainer.eval_s", "s", "lower", 0},
	{"trainer.train_allocs", "allocs", "lower", 0},
	{"tensor.gemm_gflops.train_shape", "GFLOP/s", "higher", 0},
	{"tensor.gemm_gflops.select_shape", "GFLOP/s", "higher", 0},
	{"tensor.dot_ns", "ns", "lower", 0},
	{"parallel.workers", "count", "higher", 0},
	{"parallel.speedup", "ratio", "higher", 0},
	{"parallel.identical", "count", "higher", 0},
	{"simtime.host_s_per_sim_s", "ratio", "lower", 0},
}

// Deterministic names the end-to-end metrics that depend on the inputs
// alone: two runs of one build on one seed must print them identically.
var Deterministic = map[string]bool{
	"sim_epoch_s": true, "host_link_mb_per_epoch": true, "final_acc": true, "objective_vs_batch": true,
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"` // epochs the timed sessions attempted
	Failed    int              `json:"failed"`    // of those, fallback epochs and epochs lost to an error
	Metrics   map[string]Value `json:"metrics"`
}

// metricSet collects values against one of the definition tables.
type metricSet struct {
	defs []MetricDef
	vals map[string]Value
}

func newMetricSet(defs []MetricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]Value, len(defs))}
}

// set records a value; naming a metric the table does not declare is a
// bug in the benchmark, not an input error.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = Value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("e2e: metric " + name + " is not declared")
}

// done returns the collected values, or an error naming the declared
// metrics that were never set.
func (m *metricSet) done() (map[string]Value, error) {
	var missing []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("e2e: metrics never measured: %v", missing)
	}
	return m.vals, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
