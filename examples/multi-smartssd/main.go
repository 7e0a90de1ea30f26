// Multi-SmartSSD scaling: the paper's stated future work (§5) — shard
// a dataset across several SmartSSDs and scan every shard on its
// drive's FPGA in parallel. core.Options.Cluster runs NeSSA's
// selection over such a scan.
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

	fmt.Printf("cluster near-storage traffic: %.1f MB across %d P2P links\n",
		float64(cluster.TotalBytes("p2p.read"))/1e6, drives)
}
