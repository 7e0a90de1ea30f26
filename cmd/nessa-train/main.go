// nessa-train trains one Table 1 dataset end to end with a chosen
// selection strategy and prints the measured report, including the
// data-movement accounting from the SmartSSD simulator.
//
// Usage:
//
//	nessa-train [-dataset CIFAR-10] [-method nessa|craig|kcenters|random|full]
//	            [-epochs 60] [-subset 0.4] [-seed 7] [-workers 0]
//	            [-streaming] [-streamchunk 8192]
//	            [-no-device]
//	            [-chaos] [-fault-seed 42] [-fault-corrupt 0] [-fault-transient 0]
//	            [-fault-latency 0] [-fault-linkdown 0]
//	            [-parity 3+1] [-kill 1@3] [-spare]
//	            [-checkpoint ckpt.bin] [-checkpoint-every 0] [-resume ckpt.bin]
//	            [-cpuprofile cpu.prof]
//
// -streaming selects each subset with the single-pass sieve pipeline
// (one sequential scan of the candidates in fixed on-chip memory,
// DESIGN.md §4.10) instead of the materialized per-class CRAIG solve;
// it requires the facility selector, i.e. -method nessa or craig, and
// runs on the host, the device or a -parity cluster alike.
// -streamchunk sets the records per scan chunk.
//
// The -fault-* flags attach a deterministic fault injector to the
// simulated device (requires the device, i.e. not -no-device); -chaos
// is shorthand for the standard profile with every class active. The
// run completes through retries, host-path fallback, and degraded-mode
// selection, and prints what the recovery machinery absorbed.
//
// -parity k+m replaces the single device with a k+m-drive cluster:
// the dataset is striped over k drives with m Reed–Solomon parity
// stripes, and every candidate scan survives up to m whole-device
// losses by reconstructing lost stripes from the survivors (DESIGN.md
// §4.11); m may be 0 — plain sharding, where any loss is fatal — and
// k+m may not exceed 255. -kill d@n scripts a permanent kill of device
// d (a drive 0…k+m−1, or k+m for the -spare) after its n-th completed
// scan, n ≥ 1; -spare attaches a hot spare and auto-rebuilds
// onto it after the first degraded scan. -checkpoint writes the full
// session state to a file every -checkpoint-every epochs (0 = every
// epoch); -resume restores such a file and reproduces the remaining
// epochs bit-identically. -cpuprofile writes a runtime/pprof CPU
// profile of the whole run, from data generation on, to a file (read it
// with `go tool pprof`); it changes nothing the run prints.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"nessa"
)

func main() {
	dataset := flag.String("dataset", "CIFAR-10", "dataset name from Table 1 (or MNIST)")
	method := flag.String("method", "nessa", "nessa | craig | kcenters | random | full")
	epochs := flag.Int("epochs", 0, "training epochs (0 = recipe default)")
	subset := flag.Float64("subset", 0, "initial subset fraction (0 = method default)")
	seed := flag.Uint64("seed", 7, "controller seed")
	workers := flag.Int("workers", 0, "worker goroutines for selection, training GEMMs, and evaluation (0 = all cores, 1 = serial; results are identical either way)")
	streaming := flag.Bool("streaming", false, "select with the single-pass streaming sieve: one sequential candidate scan in fixed on-chip memory (facility selector only)")
	streamChunk := flag.Int("streamchunk", 0, "records per streaming scan chunk (0 = default 8192)")
	noDevice := flag.Bool("no-device", false, "skip the SmartSSD simulation / movement accounting")
	chaos := flag.Bool("chaos", false, "inject the standard chaos fault profile (all classes active)")
	faultSeed := flag.Uint64("fault-seed", 42, "fault injector seed")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "NAND read corruption probability per flash command")
	faultTransient := flag.Float64("fault-transient", 0, "transient I/O error probability per flash command")
	faultLatency := flag.Float64("fault-latency", 0, "latency spike probability per flash command")
	faultLinkdown := flag.Float64("fault-linkdown", 0, "P2P link drop probability per transfer")
	parity := flag.String("parity", "", "erasure-coded cluster placement \"k+m\": stripe over k drives with m parity drives (replaces the single device)")
	kill := flag.String("kill", "", "scripted whole-device kill \"d@n\": device d dies permanently after its n-th completed scan (requires -parity)")
	spareFlag := flag.Bool("spare", false, "attach a hot spare and auto-rebuild onto it after a degraded scan (requires -parity)")
	checkpointPath := flag.String("checkpoint", "", "write session checkpoints to this file")
	checkpointEvery := flag.Int("checkpoint-every", 0, "epochs between checkpoints (0 = every epoch; needs -checkpoint)")
	resumePath := flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof)")
	flag.Parse()
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	place, kills, err := parseCluster(*parity, *kill, *spareFlag)
	if err != nil {
		fatal(err)
	}

	spec, ok := nessa.LookupDataset(*dataset)
	if !ok {
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	train, test := nessa.Generate(spec)
	cfg := nessa.DefaultTrainConfig()
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}

	if *method == "full" {
		met := nessa.TrainFullData(train, test, cfg)
		fmt.Printf("dataset=%s method=full epochs=%d\n", spec.Name, cfg.Epochs)
		fmt.Printf("final accuracy: %.2f%%  best: %.2f%%  samples seen: %d\n",
			met.FinalAcc*100, met.BestAcc()*100, met.SamplesSeen())
		return
	}

	opt := nessa.DefaultOptions()
	opt.Seed = *seed
	opt.Workers = *workers
	switch *method {
	case "nessa":
	case "craig":
		opt.Selector = nessa.SelectorFacility
		opt.QuantFeedback = false
		opt.SelectEvery = 5
		opt.SubsetBias = false
		opt.Partition = false
		opt.DynamicSizing = false
		opt.SubsetFrac = 0.30
	case "kcenters":
		opt.Selector = nessa.SelectorKCenters
		opt.QuantFeedback = false
		opt.SelectEvery = 5
		opt.SubsetBias = false
		opt.Partition = false
		opt.DynamicSizing = false
		opt.SubsetFrac = 0.30
	case "random":
		opt.Selector = nessa.SelectorRandom
		opt.SubsetBias = false
		opt.Partition = false
		opt.DynamicSizing = false
		opt.SubsetFrac = 0.30
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}
	opt.Streaming = *streaming
	opt.StreamChunk = *streamChunk
	if *subset > 0 {
		opt.SubsetFrac = *subset
		if opt.MinSubsetFrac > opt.SubsetFrac {
			opt.MinSubsetFrac = opt.SubsetFrac
		}
	}

	var dev *nessa.SmartSSD
	var cluster *nessa.Cluster
	if *parity != "" {
		if *noDevice {
			fatal(fmt.Errorf("-parity needs the simulated devices (drop -no-device)"))
		}
		cluster, err = nessa.NewCluster(place.Total())
		if err != nil {
			fatal(err)
		}
		img, err := nessa.EncodeDataset(train)
		if err != nil {
			fatal(err)
		}
		if _, err := cluster.StripeDataset(spec.Name, img, spec.BytesPerImage, place); err != nil {
			fatal(err)
		}
		if *spareFlag {
			spare, err := nessa.NewSmartSSD()
			if err != nil {
				fatal(err)
			}
			cluster.AttachSpare(spare)
			opt.AutoRebuild = true
		}
		opt.Cluster = cluster
		opt.DatasetName = spec.Name
	} else if !*noDevice {
		dev, err = nessa.NewSmartSSD()
		if err != nil {
			fatal(err)
		}
		img, err := nessa.EncodeDataset(train)
		if err != nil {
			fatal(err)
		}
		if err := dev.StoreDataset(spec.Name, img); err != nil {
			fatal(err)
		}
		opt.Device = dev
		opt.DatasetName = spec.Name
	}

	wantFaults := *chaos || *faultCorrupt > 0 || *faultTransient > 0 || *faultLatency > 0 || *faultLinkdown > 0
	if wantFaults || kills != nil {
		if dev == nil && cluster == nil {
			fatal(fmt.Errorf("fault injection needs the simulated device (drop -no-device)"))
		}
		profile := nessa.DefaultChaosProfile()
		if !*chaos {
			profile = nessa.FaultProfile{
				CorruptRate:   *faultCorrupt,
				TransientRate: *faultTransient,
				LatencyRate:   *faultLatency,
				LatencySpike:  5 * time.Millisecond,
				LinkDownRate:  *faultLinkdown,
			}
		}
		profile.Seed = *faultSeed
		profile.Kills = kills
		opt.Injector = nessa.NewFaultInjector(profile)
	}

	if *checkpointPath != "" {
		opt.CheckpointEvery = *checkpointEvery
		opt.CheckpointSink = func(epoch int, blob []byte) error {
			return os.WriteFile(*checkpointPath, blob, 0o644)
		}
	} else if *checkpointEvery > 0 {
		fatal(fmt.Errorf("-checkpoint-every needs -checkpoint"))
	}
	if *resumePath != "" {
		blob, err := os.ReadFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		opt.Resume = blob
	}

	rep, err := nessa.Train(train, test, cfg, opt)
	if err != nil {
		fatal(err)
	}
	if rep.Recovery.ResumedFromEpoch >= 0 {
		fmt.Printf("resumed from epoch %d\n", rep.Recovery.ResumedFromEpoch)
	}
	fmt.Printf("dataset=%s method=%s epochs=%d\n", spec.Name, *method, cfg.Epochs)
	fmt.Printf("final accuracy: %.2f%%  best: %.2f%%\n", rep.Metrics.FinalAcc*100, rep.Metrics.BestAcc()*100)
	fmt.Printf("subset: final %.0f%%  average %.0f%%  biasing dropped %d of %d samples\n",
		rep.FinalSubsetFrac*100, rep.AvgSubsetFrac*100, rep.Dropped, train.Len())
	fmt.Printf("gradient computations: %d (full training: %d)\n",
		rep.Metrics.SamplesSeen(), cfg.Epochs*train.Len())

	if opt.Injector != nil {
		f := rep.Faults
		fmt.Println("\nfault recovery:")
		fmt.Printf("  scan attempts %d  retries %d  transient absorbed %d  corrupt caught %d\n",
			f.ScanAttempts, f.Retries, f.TransientErrors, f.CorruptDetected)
		fmt.Printf("  host fallbacks %d  degraded (weighted-random) epochs %d\n",
			f.HostFallbacks, f.FallbackEpochs)
		fmt.Print("  injected:")
		for _, c := range nessa.FaultClasses() {
			if n := f.Injected[c]; n > 0 {
				fmt.Printf("  %s=%d", c, n)
			}
		}
		fmt.Println()
	}

	if cluster != nil {
		r := rep.Recovery
		fmt.Println("\ndevice-loss recovery:")
		fmt.Printf("  devices lost %d  degraded reads %d  reconstructed %.2f MB  rebuild wall %v\n",
			r.DevicesLost, r.DegradedReads, float64(r.ReconstructedBytes)/1e6, r.RebuildTime)
		for i := range cluster.Devices {
			fmt.Printf("  device %d: %s\n", i, cluster.DeviceHealth(i))
		}
		fmt.Println("simulated cluster movement:")
		for _, b := range cluster.Acct.ByteBuckets() {
			fmt.Printf("  %-20s %10.2f MB\n", b.Name, float64(b.Bytes)/1e6)
		}
		for _, d := range cluster.Devices {
			for _, b := range d.Acct.ByteBuckets() {
				fmt.Printf("  dev/%-16s %10.2f MB\n", b.Name, float64(b.Bytes)/1e6)
			}
			break // per-device buckets are symmetric; show one drive
		}
		fmt.Printf("cluster wall clock: %v\n", cluster.MaxClock())
	}

	if dev != nil {
		fmt.Println("\nsimulated data movement:")
		for _, b := range dev.Acct.ByteBuckets() {
			fmt.Printf("  %-14s %10.2f MB\n", b.Name, float64(b.Bytes)/1e6)
		}
		fmt.Println("simulated device time:")
		for _, b := range dev.Acct.TimeBuckets() {
			fmt.Printf("  %-14s %12v\n", b.Name, b.Duration)
		}
	}
}

// parseCluster parses -parity "k+m" and -kill "d@n", each whole (the
// newline makes Sscanf reject trailing input), before any drive is
// built. It rejects a placement erasure.New cannot code (k ≥ 1,
// m ≥ 0, k+m ≤ 255) and a kill that can never fire: one after n < 1
// scans, or of a device d that is neither a drive 0…k+m−1 nor, with
// spare, the spare k+m. With parity empty the Placement is zero, and
// a kill or a spare is an error: neither has a cluster to act on.
func parseCluster(parity, kill string, spare bool) (nessa.Placement, []nessa.DeviceKill, error) {
	var k, m int
	if parity != "" {
		if _, err := fmt.Sscanf(parity+"\n", "%d+%d\n", &k, &m); err != nil || k < 1 || m < 0 || k > 255-m {
			return nessa.Placement{}, nil, fmt.Errorf("-parity wants \"k+m\" with k ≥ 1, m ≥ 0 and k+m ≤ 255 (e.g. 3+1), got %q", parity)
		}
	}
	place := nessa.Placement{DataShards: k, ParityShards: m}
	if parity == "" && (kill != "" || spare) {
		return place, nil, fmt.Errorf("-kill and -spare need an erasure-coded cluster (set -parity)")
	}
	if kill == "" {
		return place, nil, nil
	}
	ids := place.Total()
	if spare {
		ids++
	}
	var d nessa.DeviceKill
	if _, err := fmt.Sscanf(kill+"\n", "%d@%d\n", &d.Device, &d.AfterScans); err != nil || d.AfterScans < 1 || d.Device < 0 || d.Device >= ids {
		return place, nil, fmt.Errorf("-kill wants \"d@n\" with a device d in 0…%d and n ≥ 1 scans (e.g. 1@3), got %q", ids-1, kill)
	}
	return place, []nessa.DeviceKill{d}, nil
}

// startCPUProfile starts a CPU profile into a new file at path; stop
// ends it and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// fatal ends a -cpuprofile profile (a no-op without one), so the file
// holds the run up to the error, and exits 1.
func fatal(err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "nessa-train:", err)
	os.Exit(1)
}
