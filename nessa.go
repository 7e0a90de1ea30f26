// Package nessa is the public API of the NeSSA reproduction: near-
// storage data selection for accelerated machine-learning training
// (Prakriya et al., HotStorage '23).
//
// The package re-exports the stable surface of the internal packages:
//
//   - Datasets and the synthetic generator (paper Table 1).
//   - The NeSSA training controller with all paper optimizations:
//     quantized-weight feedback, subset biasing, dataset partitioning,
//     and dynamic subset sizing, plus the CRAIG / k-Centers / random
//     baselines.
//   - The SmartSSD device simulator (P2P + host links, FPGA memory
//     budgets) for data-movement accounting.
//   - The experiment harness that regenerates every table and figure
//     of the paper's evaluation.
//
// Quickstart:
//
//	spec, _ := nessa.LookupDataset("CIFAR-10")
//	train, test := nessa.Generate(spec)
//	report, err := nessa.Train(train, test, nessa.DefaultTrainConfig(), nessa.DefaultOptions())
//
// See examples/ for runnable programs and DESIGN.md for the mapping
// from paper sections to packages.
package nessa

import (
	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/nn"
	"nessa/internal/selection"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// Dataset is an in-memory labelled feature dataset.
type Dataset = data.Dataset

// Spec describes a dataset at paper scale and simulation scale.
type Spec = data.Spec

// Options configures a NeSSA (or baseline) training run.
type Options = core.Options

// Report is the measured outcome of a training run.
type Report = core.Report

// TrainConfig holds the SGD recipe (paper §4.1).
type TrainConfig = trainer.Config

// Metrics records accuracy/loss/subset-size series of a run.
type Metrics = trainer.Metrics

// SmartSSD is the simulated computational storage device.
type SmartSSD = smartssd.Device

// SelectionResult is a selected subset with medoid weights.
type SelectionResult = selection.Result

// Selector names. See Options.Selector.
const (
	SelectorFacility = core.SelectorFacility
	SelectorKCenters = core.SelectorKCenters
	SelectorRandom   = core.SelectorRandom
	SelectorTopLoss  = core.SelectorTopLoss
)

// Datasets returns the paper's Table 1 dataset registry.
func Datasets() []Spec { return data.Registry() }

// LookupDataset finds a dataset by name ("CIFAR-10", "SVHN",
// "CINIC-10", "CIFAR-100", "TinyImageNet", "ImageNet-100", "MNIST",
// "ImageNet-1k").
func LookupDataset(name string) (Spec, bool) { return data.Lookup(name) }

// Generate builds the seeded synthetic train/test pair for a spec.
func Generate(spec Spec) (train, test *Dataset) { return data.Generate(spec) }

// EncodeDataset serializes a dataset into the on-SSD record layout.
func EncodeDataset(d *Dataset) ([]byte, error) { return data.Encode(d) }

// DecodeDataset parses an on-SSD byte image back into a dataset. A
// record that fails its CRC, holds a feature count other than
// spec.FeatureDim or a label ≥ spec.Classes is an error.
func DecodeDataset(spec Spec, img []byte) (*Dataset, error) { return data.Decode(spec, img) }

// DefaultTrainConfig returns the paper §4.1 training recipe scaled to
// the simulation substrate.
func DefaultTrainConfig() TrainConfig { return trainer.Default() }

// DefaultOptions returns the full NeSSA configuration (quantized
// feedback + subset biasing + partitioning + dynamic sizing) with the
// paper's constants.
func DefaultOptions() Options { return core.DefaultOptions() }

// Train runs the NeSSA controller (or a baseline, per opt.Selector)
// and returns the measured report.
func Train(train, test *Dataset, cfg TrainConfig, opt Options) (*Report, error) {
	return core.Run(train, test, cfg, opt)
}

// TrainFullData trains on the entire dataset — the paper's "All Data"
// / "Goal" reference.
func TrainFullData(train, test *Dataset, cfg TrainConfig) *Metrics {
	_, met := trainer.TrainFull(train, test, cfg)
	return met
}

// NewSmartSSD assembles a simulated SmartSSD with the paper's device
// parameters (3.84 TB NAND, 3 GB/s P2P, 1.4 GB/s host path, 4 GB DRAM,
// 4.32 MB on-chip memory).
func NewSmartSSD() (*SmartSSD, error) { return smartssd.New() }

// SelectCoreset runs one standalone facility-location selection over
// gradient embeddings grouped by class, returning k medoids with
// cluster weights — the paper's Eq. 5 outside the training loop.
// Classes fan out across the shared worker pool, each on its own
// deterministic RNG stream derived from seed.
func SelectCoreset(embeddings *Matrix, classes [][]int, k int, seed uint64) (SelectionResult, error) {
	return selection.PerClassWith(embeddings, classes, k, func(ci int) selection.Maximizer {
		return selection.StochasticMaximizer(0.1, selection.ClassStream(seed, ci))
	})
}

// Matrix is the dense float32 matrix type used for features and
// embeddings.
type Matrix = tensor.Matrix

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// Cluster is a group of SmartSSDs holding record-wise stripes of a
// dataset, optionally with parity — the paper's §5 future-work scaling
// target.
type Cluster = smartssd.Cluster

// NewCluster assembles n simulated SmartSSDs.
func NewCluster(n int) (*Cluster, error) { return smartssd.NewCluster(n) }

// CoresetObjective evaluates the facility-location objective of an
// explicit selection over the candidates (paper Eq. 5) — useful for
// comparing selection strategies.
func CoresetObjective(embeddings *Matrix, cand, selected []int) float64 {
	return selection.Objective(embeddings, cand, selected)
}

// FaultProfile configures per-operation fault rates for the seeded
// injector (§4.6): NAND read corruption, transient I/O errors, latency
// spikes, P2P link drops, and shard stalls.
type FaultProfile = faults.Profile

// FaultInjector is a deterministic seeded fault injector. Attach one
// via Options.Injector (or SmartSSD.SetInjector for device-level use).
type FaultInjector = faults.Injector

// FaultClass names one injectable fault class.
type FaultClass = faults.Class

// FaultReport aggregates a run's fault-recovery activity.
type FaultReport = core.FaultReport

// RetryPolicy bounds the recovery loop around device reads. The zero
// value means DefaultRetryPolicy.
type RetryPolicy = smartssd.RetryPolicy

// Typed fault sentinels: classify failures with errors.Is.
var (
	ErrCorruptRecord = faults.ErrCorruptRecord
	ErrTransientIO   = faults.ErrTransientIO
	ErrLinkDown      = faults.ErrLinkDown
	ErrOutOfRange    = faults.ErrOutOfRange
	ErrNotFound      = faults.ErrNotFound
	ErrDeviceLost    = faults.ErrDeviceLost
)

// Placement configures striping for Cluster.StripeDataset (§4.11):
// DataShards record stripes protected by ParityShards Reed–Solomon
// parity stripes, surviving up to ParityShards whole-device losses.
// ParityShards may be 0 — plain sharding, which Cluster.ShardDataset
// spells for a whole cluster — and then any device loss fails the scan.
type Placement = smartssd.Placement

// ScanStats aggregates one cluster scan's read activity, including
// degraded reads served by parity reconstruction.
type ScanStats = smartssd.ScanStats

// DeviceHealth is a cluster member's health state: healthy or lost.
type DeviceHealth = smartssd.Health

// DeviceKill schedules a scripted whole-device kill in a FaultProfile:
// device Device dies permanently after AfterScans completed scans.
type DeviceKill = faults.DeviceKill

// RecoveryReport aggregates a run's device-loss recovery activity:
// reconstructions, rebuilds, and the resume point of a checkpointed
// session.
type RecoveryReport = core.RecoveryReport

// NewFaultInjector builds a deterministic injector from a profile.
func NewFaultInjector(p FaultProfile) *FaultInjector { return faults.NewInjector(p) }

// FaultClasses lists every injectable fault class.
func FaultClasses() []FaultClass { return faults.AllClasses() }

// DefaultChaosProfile returns the standard chaos profile: every rated
// fault class active at moderate rates, and no device killed — the
// configuration the resilience tests and bench-faults run under.
func DefaultChaosProfile() FaultProfile { return faults.DefaultChaosProfile() }

// DefaultRetryPolicy returns the standard read-recovery policy: four
// attempts with 200 µs → 5 ms exponential backoff.
func DefaultRetryPolicy() RetryPolicy { return smartssd.DefaultRetryPolicy() }

// ProxyEmbeddings trains a proxy model for warmupEpochs and returns
// the per-sample last-layer gradient embeddings (softmax − one-hot) —
// the representation NeSSA's selection clusters on. Use it to run the
// standalone selectors over your own dataset.
func ProxyEmbeddings(train *Dataset, cfg TrainConfig, warmupEpochs int) *Matrix {
	tr := trainer.New(train.Spec, cfg)
	for e := 0; e < warmupEpochs; e++ {
		tr.SetEpoch(e)
		tr.TrainEpoch(train.X, train.Labels, nil)
	}
	logits := tr.Model.Forward(train.X)
	return nn.GradEmbeddings(logits, train.Labels)
}
