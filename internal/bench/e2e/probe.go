package e2e

import (
	"time"

	"nessa/internal/data"
	"nessa/internal/erasure"
	"nessa/internal/tensor"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float32

// perSecond is the probes' timer. A probe times a layer the epoch loop
// never calls directly (storage, erasure, tensor, the record decoder):
// the public function, at the workload's shapes, outside any epoch span.
// After one untimed call, which pays page faults and table set-up, f is
// repeated until d has passed so a single call's jitter averages out;
// the result is calls per second.
func perSecond(d time.Duration, f func()) float64 {
	f()
	n, t0 := 0, time.Now()
	for n == 0 || time.Since(t0) < d {
		f()
		n++
	}
	return float64(n) / time.Since(t0).Seconds()
}

// probeStorage reads device 0's whole stored object through SSD.ReadAt
// and decodes every record of that payload with DecodeRecordInto.
func probeStorage(in *Instance, ms *metricSet) error {
	ssd := in.devices[0].SSD
	size, err := ssd.Size(datasetName)
	if err != nil {
		return err
	}
	var payload []byte
	reads := perSecond(in.W.ProbeFor, func() {
		payload, _, err = ssd.ReadAt(datasetName, 0, size)
	})
	if err != nil {
		return err
	}
	ms.set("storage.readat_mb_per_s", reads*float64(size)/1e6)

	rec := in.W.RecordBytes
	records := int(size / rec)
	feats := make([]float32, in.W.FeatureDim)
	passes := perSecond(in.W.ProbeFor, func() {
		for i := 0; i < records && err == nil; i++ {
			_, err = data.DecodeRecordInto(payload[int64(i)*rec:int64(i+1)*rec], feats)
		}
		sink += feats[0]
	})
	if err != nil {
		return err
	}
	ms.set("data.decode_records_per_s", passes*float64(records))
	return nil
}

// probeErasure times the workload's Reed–Solomon code at its stripe
// length: a full parity encode, and reconstruction of one and of two
// lost data stripes. Workloads without a cluster never enter the layer
// and report 0.
func probeErasure(in *Instance, ms *metricSet) error {
	names := []string{"erasure.encode_mb_per_s", "erasure.reconstruct_mb_per_s.one_loss", "erasure.reconstruct_mb_per_s.two_loss"}
	w := in.W
	if !w.Clustered() {
		for _, n := range names {
			ms.set(n, 0)
		}
		return nil
	}
	code, err := erasure.New(w.DataShards, w.ParityShards)
	if err != nil {
		return err
	}
	records := in.Train.Len()
	stripe := int64((records+w.DataShards-1)/w.DataShards) * w.RecordBytes
	shards := make([][]byte, w.DataShards+w.ParityShards)
	rng := tensor.NewRNG(in.Opt.Seed)
	for i := range shards {
		shards[i] = make([]byte, stripe)
		if i < w.DataShards {
			for j := range shards[i] {
				shards[i][j] = byte(rng.Uint64())
			}
		}
	}
	dataMB := float64(int64(w.DataShards)*stripe) / 1e6
	ms.set(names[0], dataMB*perSecond(in.W.ProbeFor, func() { err = code.Encode(shards) }))
	if err != nil {
		return err
	}
	for lost := 1; lost <= 2 && lost <= w.ParityShards; lost++ {
		work := make([][]byte, len(shards))
		rate := perSecond(in.W.ProbeFor, func() {
			copy(work, shards)
			for i := 0; i < lost; i++ {
				work[i] = nil
			}
			err = code.Reconstruct(work)
		})
		if err != nil {
			return err
		}
		ms.set(names[lost], rate*float64(int64(lost)*stripe)/1e6)
	}
	if w.ParityShards < 2 {
		ms.set(names[2], 0)
	}
	return nil
}

// probeTensor times the GEMM the model's first layer runs at the two
// shapes the workload feeds it — a training batch and the whole
// selection pool — and one dot product at the embedding dimension, the
// unit of work of the facility gain scan.
func probeTensor(in *Instance, ms *metricSet) {
	w := in.W
	rng := tensor.NewRNG(in.Opt.Seed)
	wt := tensor.NewMatrix(w.Hidden[0], w.FeatureDim)
	wt.FillNormal(rng, 1)
	gemm := func(rows int) float64 {
		a := tensor.NewMatrix(rows, w.FeatureDim)
		a.FillNormal(rng, 1)
		dst := tensor.NewMatrix(rows, w.Hidden[0])
		calls := perSecond(in.W.ProbeFor, func() { tensor.MatMulTransB(dst, a, wt) })
		return calls * 2 * float64(rows) * float64(w.FeatureDim) * float64(w.Hidden[0]) / 1e9
	}
	ms.set("tensor.gemm_gflops.train_shape", gemm(in.Cfg.BatchSize))
	ms.set("tensor.gemm_gflops.select_shape", gemm(in.Train.Len()))

	const dots = 4096
	v := tensor.NewMatrix(dots+1, w.Classes)
	v.FillNormal(rng, 1)
	passes := perSecond(in.W.ProbeFor, func() {
		var s float32
		for i := 0; i < dots; i++ {
			s += tensor.Dot(v.Row(i), v.Row(i+1))
		}
		sink += s
	})
	ms.set("tensor.dot_ns", 1e9/(passes*dots))
}
