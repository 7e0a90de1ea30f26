// Package e2e is the repo's end-to-end benchmark: whole core.Run
// sessions timed from outside (tracing off) for the numbers a user
// sees, and a staged re-run of the same epoch loop with a span around
// every layer call for the numbers that explain them. BENCHMARK.json
// at the module root names the metrics; README.md in this directory
// defines them.
package e2e

import (
	"fmt"
	"runtime"
	"time"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// Workload is one fixed set of inputs and options. Names are cited by
// later issues and by BENCHMARK.json; do not rename.
type Workload struct {
	Name string
	Why  string

	Train, Test int // generated samples
	FeatureDim  int
	Classes     int
	RecordBytes int64
	Hidden      []int
	Epochs      int

	// Tune adjusts core.DefaultOptions for this workload.
	Tune func(*core.Options)

	// Cluster workloads stripe the image DataShards+ParityShards wide
	// with Spares standbys and kill devices on the Kills schedule.
	DataShards, ParityShards, Spares int
	Kills                            []faults.DeviceKill

	// ProbeFor is how long each layer probe of a traced run repeats its
	// call.
	ProbeFor time.Duration
}

// Clustered reports whether the workload runs on a smartssd.Cluster.
func (w *Workload) Clustered() bool { return w.DataShards > 0 }

// Workloads returns the four benchmark workloads. smoke shrinks every
// dimension that sets run time (records, epochs) and nothing that sets
// which code runs, so the tier-1 test drives the same option sets in
// well under a second each.
func Workloads(smoke bool) []*Workload {
	ws := []*Workload{
		{
			Name:  "nessa_default",
			Why:   "what nessa-train -method nessa runs: all four paper optimisations live, time spread over selection, forward, train and scan",
			Train: 60000, Test: 2000, FeatureDim: 32, Classes: 10, RecordBytes: 512,
			Hidden: []int{64}, Epochs: 24,
		},
		{
			Name:  "stream_select",
			Train: 100000, Test: 2000, FeatureDim: 32, Classes: 10, RecordBytes: 512,
			Why:    "single-pass streaming selection inside a real epoch: the run is sieve pushes, train is near zero",
			Hidden: []int{64}, Epochs: 4,
			Tune: func(o *core.Options) {
				o.Streaming = true
				o.SubsetFrac, o.MinSubsetFrac = 0.005, 0.005
			},
		},
		{
			Name:  "train_heavy",
			Why:   "wide model, 100 classes, reselect every 5 epochs: the run is TrainEpoch GEMMs; bypass for selection and storage work",
			Train: 20000, Test: 2000, FeatureDim: 96, Classes: 100, RecordBytes: 512,
			Hidden: []int{256, 128}, Epochs: 20,
			Tune: func(o *core.Options) { o.SelectEvery = 5 },
		},
		{
			Name:  "cluster_loss",
			Why:   "4+2 striped cluster losing two drives: clean scans, a degraded scan plus rebuild onto the spare, then degraded scans with no spare",
			Train: 40000, Test: 2000, FeatureDim: 32, Classes: 10, RecordBytes: 3072,
			Hidden: []int{16}, Epochs: 10,
			Tune: func(o *core.Options) {
				o.SubsetFrac, o.MinSubsetFrac = 0.1, 0.1
				o.AutoRebuild = true
			},
			DataShards: 4, ParityShards: 2, Spares: 1,
			Kills: []faults.DeviceKill{{Device: 1, AfterScans: 2}, {Device: 3, AfterScans: 5}},
		},
	}
	for _, w := range ws {
		w.ProbeFor = 150 * time.Millisecond
	}
	if smoke {
		for _, w := range ws {
			w.Train /= 50
			w.Test = 200
			w.ProbeFor = 2 * time.Millisecond
		}
		ws[0].Epochs = 22  // keeps the epoch-20 bias prune
		ws[1].Train = 4000 // 0.5 % must still buy every class a pick or two
		ws[2].Epochs = 6
	}
	return ws
}

// Lookup finds a workload by name.
func Lookup(name string, smoke bool) (*Workload, error) {
	for _, w := range Workloads(smoke) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("e2e: unknown workload %q", name)
}

// Workers is the pool size every session runs with: two when the host
// has them, so the parallel paths are live without depending on the
// core count of whatever machine runs the benchmark.
func Workers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

const datasetName = "e2e"

// records is the training-set size for a seed: the nominal size plus a
// seed-derived sliver of at most 0.1 %. Every other input the simulated
// clock and the byte ledger depend on is fixed by the workload, so
// without it the deterministic metrics could not tell one seed from
// another; with it each seed lays the image out at its own length. The
// sliver is a whole number of records per data stripe, so a striped
// image never needs padding on one seed and not on the next.
func (w *Workload) records(seed uint64) int {
	step := 1
	if w.Clustered() {
		step = w.DataShards
	}
	return w.Train + step*(int(seed*0x9E3779B97F4A7C15>>33)%(w.Train/(1000*step)+1))
}

// dataSpec derives the synthetic dataset from the workload and seed.
func (w *Workload) dataSpec(seed uint64) data.Spec {
	n := w.records(seed)
	return data.Spec{
		Name: datasetName, Classes: w.Classes, Train: n, BytesPerImage: w.RecordBytes,
		SimTrain: n, SimTest: w.Test, FeatureDim: w.FeatureDim,
		Spread: 0.15, HardFrac: 0.15, NoiseFrac: 0.02, Seed: seed,
		Modes: 4, ModeSpread: 1.0, ModeDecay: 0.6,
	}
}

// Instance is one ready-to-run session: generated data, a fresh device
// or cluster holding the encoded image, and the options that attach
// them. A session consumes its instance (clocks advance, devices die),
// so every repetition sets up a new one.
type Instance struct {
	W           *Workload
	Train, Test *data.Dataset
	Cfg         trainer.Config
	Opt         core.Options
	ImageBytes  int64

	// devices is every drive the instance owns, spares included, in a
	// list that survives Rebuild swapping cluster slots — accounting
	// sums over it so a replaced drive's ledger is not lost.
	devices []*smartssd.Device

	Generate, Encode, Store time.Duration // set-up phases, host wall
}

// SetupTime is the instance's whole set-up wall time.
func (in *Instance) SetupTime() time.Duration { return in.Generate + in.Encode + in.Store }

// Setup builds a fresh instance. kills arms the workload's device-kill
// schedule; without it a cluster workload runs clean.
func (w *Workload) Setup(seed uint64, workers int, kills bool) (*Instance, error) {
	in := &Instance{W: w}
	spec := w.dataSpec(seed)

	t0 := time.Now()
	in.Train, in.Test = data.Generate(spec)
	t1 := time.Now()
	img, err := data.Encode(in.Train)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	in.ImageBytes = int64(len(img))

	in.Cfg = trainer.Default()
	in.Cfg.Epochs = w.Epochs
	in.Cfg.Hidden = w.Hidden
	in.Cfg.Seed = seed
	in.Opt = core.DefaultOptions()
	in.Opt.Seed = seed
	in.Opt.Workers = workers
	in.Opt.DatasetName = datasetName
	if w.Tune != nil {
		w.Tune(&in.Opt)
	}

	if w.Clustered() {
		c, err := smartssd.NewCluster(w.DataShards + w.ParityShards)
		if err != nil {
			return nil, err
		}
		place := smartssd.Placement{DataShards: w.DataShards, ParityShards: w.ParityShards}
		if _, err := c.StripeDataset(datasetName, img, w.RecordBytes, place); err != nil {
			return nil, err
		}
		in.devices = append(in.devices, c.Devices...)
		for i := 0; i < w.Spares; i++ {
			d, err := smartssd.New()
			if err != nil {
				return nil, err
			}
			c.AttachSpare(d)
			in.devices = append(in.devices, d)
		}
		in.Opt.Cluster = c
		if kills {
			in.Opt.Injector = faults.NewInjector(faults.Profile{Seed: seed, Kills: w.Kills})
		}
	} else {
		d, err := smartssd.New()
		if err != nil {
			return nil, err
		}
		if err := d.StoreDataset(datasetName, img); err != nil {
			return nil, err
		}
		in.devices = []*smartssd.Device{d}
		in.Opt.Device = d
	}
	in.Generate, in.Encode, in.Store = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return in, nil
}

// SimNow is the instance's simulated clock: the device clock, or the
// furthest-advanced drive of a cluster.
func (in *Instance) SimNow() time.Duration {
	if c := in.Opt.Cluster; c != nil {
		return c.MaxClock()
	}
	return in.Opt.Device.Clock.Now()
}

// hostLinkBuckets are the accountant buckets that cross the host
// interconnect — the paper's §4.4 quantity.
var hostLinkBuckets = []string{"gpu.send", "gpu.feedback", "host.read"}

// HostLinkBytes sums the bytes the instance has moved over the host
// interconnect: subset shipments, feedback, host-path reads, and the
// parity stripes a cluster pulled to reconstruct lost drives.
func (in *Instance) HostLinkBytes() int64 {
	var n int64
	for _, d := range in.devices {
		for _, b := range hostLinkBuckets {
			n += d.Acct.Bytes(b)
		}
	}
	if c := in.Opt.Cluster; c != nil {
		n += c.Acct.Bytes("recover.parity")
	}
	return n
}
