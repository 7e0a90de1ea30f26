// Multi-SmartSSD scaling: the paper's stated future work (§5) — shard
// a dataset across several SmartSSDs, scan every shard on its drive's
// FPGA in parallel, and merge the shard selections with the GreeDi
// two-round distributed greedy.
//
//	go run ./examples/multi-smartssd
package main

import (
	"fmt"
	"log"

	"nessa"
)

func main() {
	spec, _ := nessa.LookupDataset("CIFAR-100")
	train, _ := nessa.Generate(spec)
	img, err := nessa.EncodeDataset(train)
	if err != nil {
		log.Fatal(err)
	}

	const drives = 4
	cluster, err := nessa.NewCluster(drives)
	if err != nil {
		log.Fatal(err)
	}
	// The 4+0 placement: one record stripe per drive, no parity.
	counts, err := cluster.ShardDataset(spec.Name, img, spec.BytesPerImage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded %s across %d SmartSSDs: %v records per drive\n", spec.Name, drives, counts)

	// Every FPGA scans its local shard in parallel over its P2P link.
	_, _, wall, err := cluster.ParallelScan(spec.Name, spec.BytesPerImage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel scan wall time: %v for %.1f MB total\n", wall, float64(len(img))/1e6)

	// Gradient embeddings from a briefly warmed-up proxy model — in
	// the real deployment this is the quantized selection model every
	// drive holds a copy of.
	emb := nessa.ProxyEmbeddings(train, nessa.DefaultTrainConfig(), 3)

	all := make([]int, train.Len())
	for i := range all {
		all[i] = i
	}
	k := train.Len() * 20 / 100

	// GreeDi round 1 runs on each drive's shard in parallel; round 2
	// merges the per-drive medoids.
	dist, err := nessa.SelectCoresetDistributed(emb, all, k, drives, 1)
	if err != nil {
		log.Fatal(err)
	}
	central, err := nessa.SelectCoreset(emb, train.ClassIndex(), k, 1)
	if err != nil {
		log.Fatal(err)
	}
	distObj := nessa.CoresetObjective(emb, all, dist.Selected)
	centObj := nessa.CoresetObjective(emb, all, central.Selected)

	fmt.Printf("\nGreeDi over %d drives selected %d medoids\n", drives, len(dist.Selected))
	fmt.Printf("facility-location objective: distributed %.1f vs centralized %.1f (%.1f%%)\n",
		distObj, centObj, 100*distObj/centObj)
	fmt.Printf("cluster near-storage traffic: %.1f MB across %d P2P links\n",
		float64(cluster.TotalBytes("p2p.read"))/1e6, drives)
}
