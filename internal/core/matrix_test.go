package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// The invariant matrix pins core.Run across every way a reselection can
// get its records: source ∈ {none, one device, a 4+2 striped cluster},
// batch or streaming selection, workers ∈ {1, 2}, and condition ∈
// {clean, a transient + corrupt fault schedule, one cluster member
// killed mid-run, resumed from a mid-run checkpoint}. Each cell is the FNV-1a hash of its trajectory series,
// the final simulated clock of every attached drive, and the bytes the
// P2P links carried. The goldens below were recorded at the commit
// before the selector started consuming scanned bytes (the streaming ×
// cluster cells at the commit that first allowed the combination, before
// the session reused its buffers), so a refactor of the data path that
// moves any series, charge or injector draw fails here.
type cellGolden struct {
	series uint64 // trajectoryHash
	clocks uint64 // FNV-1a of the final device clocks, in member order
	p2p    int64  // p2p.read bytes summed over the drives
}

var matrixGolden = map[string]cellGolden{
	"batch/none/w1/clean":         {0x612815bbc98f06df, 0xcbf29ce484222325, 0},
	"batch/none/w1/resume":        {0x612815bbc98f06df, 0xcbf29ce484222325, 0},
	"batch/none/w2/clean":         {0x612815bbc98f06df, 0xcbf29ce484222325, 0},
	"batch/none/w2/resume":        {0x612815bbc98f06df, 0xcbf29ce484222325, 0},
	"batch/device/w1/clean":       {0x612815bbc98f06df, 0x2d4f25147559eec1, 27238400},
	"batch/device/w1/resume":      {0x612815bbc98f06df, 0xa88df6da13e04d55, 11212800},
	"batch/device/w1/faults":      {0xff12d0c014c92567, 0x5b482b5cced5e2c6, 30228480},
	"batch/device/w2/clean":       {0x612815bbc98f06df, 0x2d4f25147559eec1, 27238400},
	"batch/device/w2/resume":      {0x612815bbc98f06df, 0xa88df6da13e04d55, 11212800},
	"batch/device/w2/faults":      {0xff12d0c014c92567, 0x5b482b5cced5e2c6, 30228480},
	"batch/cluster/w1/clean":      {0x612815bbc98f06df, 0x376b5fc7658390de, 36864000},
	"batch/cluster/w1/resume":     {0x612815bbc98f06df, 0xced9087ab0ea61a8, 18432000},
	"batch/cluster/w1/faults":     {0x612815bbc98f06df, 0xb3d82a46329b7ad3, 40243200},
	"batch/cluster/w1/kill":       {0x612815bbc98f06df, 0x5e75436bffa499c8, 36864000},
	"batch/cluster/w2/clean":      {0x612815bbc98f06df, 0x376b5fc7658390de, 36864000},
	"batch/cluster/w2/resume":     {0x612815bbc98f06df, 0xced9087ab0ea61a8, 18432000},
	"batch/cluster/w2/faults":     {0x612815bbc98f06df, 0xb3d82a46329b7ad3, 40243200},
	"batch/cluster/w2/kill":       {0x612815bbc98f06df, 0x5e75436bffa499c8, 36864000},
	"streaming/none/w1/clean":     {0x4f2bcee9e1deba83, 0xcbf29ce484222325, 0},
	"streaming/none/w1/resume":    {0x4f2bcee9e1deba83, 0xcbf29ce484222325, 0},
	"streaming/none/w2/clean":     {0x4f2bcee9e1deba83, 0xcbf29ce484222325, 0},
	"streaming/none/w2/resume":    {0x4f2bcee9e1deba83, 0xcbf29ce484222325, 0},
	"streaming/device/w1/clean":   {0x4f2bcee9e1deba83, 0xf40daef57ed082b5, 9830400},
	"streaming/device/w1/resume":  {0x4f2bcee9e1deba83, 0xdf2eb2ebb01d6031, 4915200},
	"streaming/device/w1/faults":  {0xdba74331a88d69c3, 0x5f756422564b6d85, 10240000},
	"streaming/device/w2/clean":   {0x4f2bcee9e1deba83, 0xf40daef57ed082b5, 9830400},
	"streaming/device/w2/resume":  {0x4f2bcee9e1deba83, 0xdf2eb2ebb01d6031, 4915200},
	"streaming/device/w2/faults":  {0xdba74331a88d69c3, 0x5f756422564b6d85, 10240000},
	"streaming/cluster/w1/clean":  {0x4f2bcee9e1deba83, 0x70d99481840f109a, 9830400},
	"streaming/cluster/w1/resume": {0x4f2bcee9e1deba83, 0x28d31a6203798e2b, 4915200},
	"streaming/cluster/w1/faults": {0x4f2bcee9e1deba83, 0xeb45a1a824bf1d7a, 11366400},
	"streaming/cluster/w1/kill":   {0x4f2bcee9e1deba83, 0xdd4868c78f80a418, 9830400},
	"streaming/cluster/w2/clean":  {0x4f2bcee9e1deba83, 0x70d99481840f109a, 9830400},
	"streaming/cluster/w2/resume": {0x4f2bcee9e1deba83, 0x28d31a6203798e2b, 4915200},
	"streaming/cluster/w2/faults": {0x4f2bcee9e1deba83, 0xeb45a1a824bf1d7a, 11366400},
	"streaming/cluster/w2/kill":   {0x4f2bcee9e1deba83, 0xdd4868c78f80a418, 9830400},
}

// cell is one run of the matrix.
type cell struct {
	rep  *Report
	got  cellGolden
	blob []byte // the clean run's mid-run checkpoint (clean cells only)
	devs []*smartssd.Device
}

const (
	matrixChunk       = 100 // records per embed/scan chunk: several chunks per pass
	batchResumeAt     = 15
	streamingResumeAt = 4
)

// matrixCfg is the training recipe of a mode: the full 30-epoch tiny
// run for batch selection, the 8-epoch streaming run otherwise.
func matrixCfg(mode string) trainer.Config {
	cfg := tinyCfg()
	if mode == "streaming" {
		cfg.Epochs = 8
	}
	return cfg
}

// matrixOptions is the option set of a mode: every paper optimisation
// on for batch; streaming at a fixed 20 % budget.
func matrixOptions(mode string, workers int) Options {
	opt := tinyOptions()
	opt.Workers = workers
	opt.StreamChunk = matrixChunk
	if mode == "streaming" {
		opt.Streaming = true
		opt.DynamicSizing = false
		opt.SubsetBias = false
		opt.SubsetFrac = 0.2
	}
	return opt
}

// attach wires source src ("none", "device" or "cluster") into opt and
// returns the drives it attached.
func attach(t *testing.T, src string, opt *Options) []*smartssd.Device {
	t.Helper()
	switch src {
	case "device":
		_, _, dev := faultRig(t)
		opt.Device, opt.DatasetName = dev, "ds"
		return []*smartssd.Device{dev}
	case "cluster":
		_, _, c := clusterRig(t, 4, 2)
		opt.Cluster, opt.DatasetName = c, "ds"
		return c.Devices
	}
	return nil
}

// faultSchedule is the condition's injector profile for a source.
func faultSchedule(src, cond string) *faults.Injector {
	switch {
	case cond == "faults" && src == "device":
		// Heavy enough that some reselection exhausts its retries and
		// trains on the degraded-mode fallback subset.
		return faults.NewInjector(faults.Profile{Seed: 1, TransientRate: 0.4, CorruptRate: 0.2})
	case cond == "faults":
		return faults.NewInjector(faults.Profile{Seed: 1, TransientRate: 0.1, CorruptRate: 0.1})
	case cond == "kill":
		return faults.NewInjector(faults.Profile{Seed: 9, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 3}}})
	}
	return nil
}

var cellCache = map[string]*cell{}

// runCell runs (once per test binary) the matrix cell named
// "mode/source/wN/condition".
func runCell(t *testing.T, name string) *cell {
	t.Helper()
	if c, ok := cellCache[name]; ok {
		return c
	}
	parts := strings.Split(name, "/")
	mode, src, cond := parts[0], parts[1], parts[3]
	var workers int
	if _, err := fmt.Sscanf(parts[2], "w%d", &workers); err != nil {
		t.Fatalf("cell %q: %v", name, err)
	}
	tr, te := data.Generate(tinySpec())
	cfg := matrixCfg(mode)
	opt := matrixOptions(mode, workers)
	c := &cell{}
	c.devs = attach(t, src, &opt)
	opt.Injector = faultSchedule(src, cond)
	resumeAt := batchResumeAt
	if mode == "streaming" {
		resumeAt = streamingResumeAt
	}
	switch cond {
	case "clean":
		opt.CheckpointEvery = resumeAt
		opt.CheckpointSink = func(epoch int, b []byte) error {
			if epoch == resumeAt {
				c.blob = append([]byte(nil), b...)
			}
			return nil
		}
	case "resume":
		opt.Resume = runCell(t, fmt.Sprintf("%s/%s/%s/clean", mode, src, parts[2])).blob
	}
	rep, err := Run(tr, te, cfg, opt)
	if err != nil {
		t.Fatalf("cell %s: %v", name, err)
	}
	c.rep = rep
	c.got.series = trajectoryHash(rep)
	h := fnv.New64a()
	for _, d := range c.devs {
		fmt.Fprintf(h, "%d;", d.Clock.Now())
		c.got.p2p += d.Acct.Bytes("p2p.read")
	}
	c.got.clocks = h.Sum64()
	cellCache[name] = c
	return c
}

// matrixCells lists every cell of the matrix.
func matrixCells() []string {
	var cells []string
	for _, mode := range []string{"batch", "streaming"} {
		for _, src := range []string{"none", "device", "cluster"} {
			conds := []string{"clean", "resume"}
			switch src {
			case "device":
				conds = append(conds, "faults")
			case "cluster":
				conds = append(conds, "faults", "kill")
			}
			for _, w := range []int{1, 2} {
				for _, cond := range conds {
					cells = append(cells, fmt.Sprintf("%s/%s/w%d/%s", mode, src, w, cond))
				}
			}
		}
	}
	return cells
}

func TestInvariantMatrix(t *testing.T) {
	for _, name := range matrixCells() {
		t.Run(name, func(t *testing.T) {
			c := runCell(t, name)
			want, ok := matrixGolden[name]
			if !ok || c.got != want {
				t.Errorf("cell %s = {%#x, %#x, %d}, golden %+v (present %v)",
					name, c.got.series, c.got.clocks, c.got.p2p, want, ok)
			}
			checkCondition(t, name, c.rep)
		})
	}
}

// checkCondition holds a cell's report to what its condition must show
// besides the series: a clean run records no recovery work, the fault
// schedule is absorbed, a kill is reconstructed around, and a resumed
// run says where it picked up.
func checkCondition(t *testing.T, name string, rep *Report) {
	t.Helper()
	parts := strings.Split(name, "/")
	mode, src, cond := parts[0], parts[1], parts[3]
	f, r := rep.Faults, rep.Recovery
	if src != "none" && f.ScanAttempts == 0 {
		t.Error("storage scans recorded no read attempts")
	}
	if cond != "resume" && r.ResumedFromEpoch != -1 {
		t.Errorf("fresh run ResumedFromEpoch = %d, want -1", r.ResumedFromEpoch)
	}
	switch cond {
	case "clean":
		if f.Retries != 0 || f.FallbackEpochs != 0 || f.CorruptDetected != 0 || r.DegradedReads != 0 || r.DevicesLost != 0 {
			t.Errorf("clean run recorded recovery activity: %+v %+v", f, r)
		}
	case "faults":
		if f.Retries == 0 || f.CorruptDetected == 0 || f.TransientErrors == 0 {
			t.Errorf("fault schedule not absorbed: %+v", f)
		}
		if (f.FallbackEpochs > 0) != (src == "device") {
			t.Errorf("fallback epochs = %d; the device schedule, and only it, degrades", f.FallbackEpochs)
		}
	case "kill":
		if r.DevicesLost != 1 || r.DegradedReads == 0 || r.ReconstructedBytes == 0 {
			t.Errorf("loss not absorbed by reconstruction: %+v", r)
		}
		if r.RebuildTime != 0 {
			t.Errorf("no spare attached, yet RebuildTime = %v", r.RebuildTime)
		}
	case "resume":
		want := batchResumeAt
		if mode == "streaming" {
			want = streamingResumeAt
		}
		if r.ResumedFromEpoch != want {
			t.Errorf("ResumedFromEpoch = %d, want %d", r.ResumedFromEpoch, want)
		}
	}
}
