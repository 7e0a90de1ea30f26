package bench

import (
	"fmt"
	"time"

	"nessa/internal/data"
	"nessa/internal/fpga"
	"nessa/internal/gpu"
	"nessa/internal/smartssd"
)

// AblationScaleOut models the full §5 future-work deployment: D
// SmartSSDs shard the candidate scan and selection, and G GPUs train
// the selected subset data-parallel. Reported is the NeSSA per-epoch
// wall time for ImageNet-100 + ResNet-50 (the workload where scale
// matters most) across the (D, G) grid.
func AblationScaleOut() *Table {
	spec, _ := data.Lookup("ImageNet-100")
	net, _ := gpu.DatasetNetwork(spec.Name, spec.Network)
	kernel := fpga.DefaultKernel()
	p2p := smartssd.P2PLink()
	gpuLink := smartssd.GPULink()
	g := gpu.V100()

	const subsetFrac = 0.28
	n := spec.Train
	k := int(subsetFrac * float64(n))
	rec := spec.BytesPerImage
	selMACs := int64(net.ForwardGFLOPs * 1e9 / 2 * 0.05)
	paramBytes := int64(net.MParams * 1e6 * 4)

	t := &Table{
		ID:     "ablation-scaleout",
		Title:  "Scale-out deployment (§5): NeSSA epoch time, ImageNet-100 + ResNet-50",
		Note:   "D SmartSSDs shard scan+selection; G GPUs train data-parallel on the 28 % subset",
		Header: []string{"Drives", "GPUs", "Selection", "Train", "Epoch total", "vs 1x1"},
	}
	var base float64
	for _, drives := range []int{1, 2, 4} {
		for _, gpus := range []int{1, 2, 4} {
			// Per-drive shard: scan pipelined with the int8 forward.
			shardN := n / drives
			scan := p2p.Duration(int64(shardN)*rec, shardN)
			fwd := kernel.ForwardTime(shardN, selMACs)
			sel := max(scan, fwd) + kernel.SelectionTime(shardN, k/drives, spec.Classes, 0.1)

			dp, err := gpu.NewDataParallel(g, gpus)
			if err != nil {
				t.AddRow(fmt.Sprintf("%d", drives), fmt.Sprintf("%d", gpus), "error", err.Error(), "", "")
				continue
			}
			train := dp.EpochTime(k, net.ForwardGFLOPs, paramBytes, 128)
			transfer := gpuLink.Duration(int64(k)*rec, k/128+1)
			total := sel + transfer + train
			if base == 0 {
				base = total.Seconds()
			}
			t.AddRow(fmt.Sprintf("%d", drives), fmt.Sprintf("%d", gpus),
				sel.Round(time.Millisecond).String(),
				train.Round(time.Millisecond).String(),
				total.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2fx", base/total.Seconds()))
		}
	}
	return t
}
