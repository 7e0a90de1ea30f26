package bench

import (
	"fmt"
	"time"

	"nessa/internal/data"
	"nessa/internal/fpga"
	"nessa/internal/gpu"
	"nessa/internal/nn"
	"nessa/internal/quant"
	"nessa/internal/selection"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// ablationEmbeddings trains a small model briefly on CIFAR-10 and
// returns gradient embeddings + class index + per-sample losses — the
// realistic selection input the ablations sweep over.
func ablationEmbeddings() (*tensor.Matrix, [][]int, []float32) {
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 1200, 100
	train, _ := data.Generate(spec)
	cfg := trainer.Default()
	tr := trainer.New(spec, cfg)
	for e := 0; e < 3; e++ {
		tr.SetEpoch(e)
		tr.TrainEpoch(train.X, train.Labels, nil)
	}
	logits := tr.Model.Forward(train.X)
	emb := nn.GradEmbeddings(logits, train.Labels)
	losses := nn.SoftmaxCE(logits, train.Labels, nil, nil)
	return emb, train.ClassIndex(), losses
}

// exactPerClass is the ablations' reference: exact lazy greedy in every
// class.
func exactPerClass(int) selection.Maximizer { return selection.LazyGreedy }

// AblationEps sweeps the stochastic-greedy ε: the accuracy/latency
// trade-off of the O(N) maximizer the FPGA kernel runs (§3.1).
// Objective quality is reported relative to exact lazy greedy.
func AblationEps() *Table {
	emb, classes, _ := ablationEmbeddings()
	t := &Table{
		ID:     "ablation-eps",
		Title:  "Stochastic-greedy ε vs selection quality and time (CIFAR-10 embeddings, k=15%)",
		Note:   "objective relative to exact lazy greedy; wall time measured on this host",
		Header: []string{"eps", "Objective ratio", "Wall time"},
	}
	k := emb.Rows * 15 / 100
	exact, err := selection.PerClassWith(emb, classes, k, exactPerClass)
	if err != nil {
		t.AddRow("error", err.Error(), "")
		return t
	}
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
		start := time.Now()
		res, err := selection.PerClassWith(emb, classes, k, func(ci int) selection.Maximizer {
			return selection.StochasticMaximizer(eps, selection.ClassStream(1, ci))
		})
		if err != nil {
			t.AddRow(fmt.Sprintf("%.2f", eps), "error: "+err.Error(), "")
			continue
		}
		t.AddRow(fmt.Sprintf("%.2f", eps),
			fmt.Sprintf("%.4f", res.Objective/exact.Objective),
			time.Since(start).Round(10*time.Microsecond).String())
	}
	return t
}

// AblationPartition sweeps the §3.2.3 chunk size m: the on-chip
// working set shrinks with m while the selection objective degrades
// only mildly — the paper's memory/quality trade-off.
func AblationPartition() *Table {
	emb, classes, _ := ablationEmbeddings()
	t := &Table{
		ID:     "ablation-partition",
		Title:  "Dataset-partitioning chunk size m vs selection quality and on-chip bytes (§3.2.3)",
		Note:   "working set = largest chunk's embeddings; FPGA budget is 4.32 MB",
		Header: []string{"m", "Objective ratio", "Max chunk bytes", "Fits on chip"},
	}
	k := emb.Rows * 15 / 100
	exact, err := selection.PerClassWith(emb, classes, k, exactPerClass)
	if err != nil {
		t.AddRow("error", err.Error(), "", "")
		return t
	}
	onChip := smartssd.DefaultSpec().OnChipBytes
	for _, m := range []int{4, 8, 16, 32, 64} {
		res, err := selection.PerClassWith(emb, classes, k, func(ci int) selection.Maximizer {
			return selection.PartitionedMaximizer(m, selection.ClassStream(1, ci), selection.LazyGreedy)
		})
		if err != nil {
			t.AddRow(fmt.Sprintf("%d", m), "error: "+err.Error(), "", "")
			continue
		}
		// Largest per-class chunk: class candidates / chunks, where
		// chunks = ceil(k_c/m). Bound with the largest class.
		maxClass := 0
		for _, c := range classes {
			if len(c) > maxClass {
				maxClass = len(c)
			}
		}
		kc := k / len(classes)
		chunks := (kc + m - 1) / m
		if chunks < 1 {
			chunks = 1
		}
		chunkLen := (maxClass + chunks - 1) / chunks
		bytes := selection.ChunkBytes(chunkLen, emb.Cols)
		t.AddRow(fmt.Sprintf("%d", m),
			fmt.Sprintf("%.4f", res.Objective/exact.Objective),
			fmt.Sprintf("%d", bytes),
			fmt.Sprintf("%t", bytes <= onChip))
	}
	return t
}

// AblationBits sweeps the feedback quantization bit width (§3.2.1):
// prediction agreement with the float model vs feedback transfer size.
func AblationBits() *Table {
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 1200, 100
	train, _ := data.Generate(spec)
	cfg := trainer.Default()
	tr := trainer.New(spec, cfg)
	for e := 0; e < 5; e++ {
		tr.SetEpoch(e)
		tr.TrainEpoch(train.X, train.Labels, nil)
	}
	t := &Table{
		ID:     "ablation-bits",
		Title:  "Feedback quantization width vs selection-model fidelity and transfer size (§3.2.1)",
		Note:   "agreement = fraction of argmax predictions shared with the float32 model",
		Header: []string{"Bits", "Agreement", "Feedback bytes", "vs float32"},
	}
	floatBytes := int64(4 * tr.Model.NumParams())
	for _, bits := range []int{2, 4, 8, 16} {
		qm, err := quant.QuantizeModelBits(tr.Model, bits)
		if err != nil {
			t.AddRow(fmt.Sprintf("%d", bits), "error: "+err.Error(), "", "")
			continue
		}
		agr := quant.AgreementWithFloat(tr.Model, qm, train.X)
		t.AddRow(fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.4f", agr),
			fmt.Sprintf("%d", qm.SizeBytes()),
			fmt.Sprintf("%.2fx smaller", float64(floatBytes)/float64(qm.SizeBytes())))
	}
	return t
}

// AblationDSE reports the FPGA design-space exploration: kernel
// configurations around the deployed point, their KU15P utilization,
// and selection throughput.
func AblationDSE() *Table {
	w := fpga.Workload{N: 50_000, MACsPerSample: 1_000_000, K: 15_000, Dim: 10, RecordBytes: 3 * 1024}
	t := &Table{
		ID:     "ablation-dse",
		Title:  "FPGA kernel design space (CIFAR-10 selection workload)",
		Note:   "the deployed kernel is 512 PE / 64 DU (Table 4); throughput in records/s",
		Header: []string{"PEs", "DistUnits", "LUT %", "DSP %", "Fits", "Throughput"},
	}
	for _, p := range fpga.Explore(fpga.PaperKU15P(), w) {
		t.AddRow(fmt.Sprintf("%d", p.Config.PEs),
			fmt.Sprintf("%d", p.Config.DistUnits),
			fmt.Sprintf("%.1f", p.Util.LUT),
			fmt.Sprintf("%.1f", p.Util.DSP),
			fmt.Sprintf("%t", p.Fits),
			fmt.Sprintf("%.2e", p.Throughput))
	}
	return t
}

// AblationCluster reports the multi-SmartSSD scaling of the paper's
// future work (§5): candidate-scan wall time for 1–8 drives.
func AblationCluster() *Table {
	spec, _ := data.Lookup("CIFAR-10")
	t := &Table{
		ID:     "ablation-cluster",
		Title:  "Multi-SmartSSD scaling: candidate-scan wall time (paper §5 future work)",
		Note:   "ideal record-sharded parallel scan at paper scale (50 K × 3 KB)",
		Header: []string{"Drives", "Scan wall time", "Speed-up"},
	}
	link := smartssd.P2PLink()
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		per := link.Duration(spec.PaperBytes()/int64(n), spec.Train/n)
		if n == 1 {
			base = per.Seconds()
		}
		t.AddRow(fmt.Sprintf("%d", n),
			per.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", base/per.Seconds()))
	}
	return t
}

// AblationEnergy compares selection energy across devices (§2.2's
// power argument: FPGA 7.5 W vs K1200 45 W vs A100 250 W). Each device
// runs the CIFAR-10 selection workload at its own speed, and pays for
// staging the candidate data to itself: the FPGA streams it over the
// on-board P2P link (overlapped with compute), while a GPU must pull
// every record across the 1.4 GB/s host path while burning its full
// power envelope.
func AblationEnergy() *Table {
	spec, _ := data.Lookup("CIFAR-10")
	w := fpga.Workload{N: spec.Train, MACsPerSample: 1_000_000, K: 15_000, Dim: 10, RecordBytes: spec.BytesPerImage}
	t := &Table{
		ID:     "ablation-energy",
		Title:  "Selection energy by device incl. data staging (CIFAR-10 workload, §2.2)",
		Note:   "GPU selection must stage all candidates over the 1.4 GB/s host path at full power",
		Header: []string{"Device", "Power (W)", "Stage+select time", "Energy (J)"},
	}
	fpgaT := priceNeSSA(w).sel
	t.AddRow("SmartSSD FPGA", fmt.Sprintf("%.1f", fpga.PowerWatts()),
		fpgaT.Round(time.Millisecond).String(),
		fmt.Sprintf("%.2f", fpga.EnergyJoules(fpga.PowerWatts(), fpgaT)))

	flops := float64(float64(w.N)*float64(w.MACsPerSample)) * 2
	stage := smartssd.HostLink().Duration(spec.PaperBytes(), w.N)
	for _, g := range []gpu.GPU{gpu.K1200(), gpu.A100()} {
		compute := time.Duration(flops / g.SustainedFLOPS * float64(time.Second))
		d := stage + compute
		t.AddRow(g.Name, fmt.Sprintf("%.0f", g.Watts),
			d.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", fpga.EnergyJoules(g.Watts, d)))
	}
	return t
}
