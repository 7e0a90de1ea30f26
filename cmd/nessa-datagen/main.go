// nessa-datagen generates the synthetic stand-in datasets, lays them
// out on the simulated SmartSSD, and reports storage statistics —
// useful for inspecting what the selection pipeline actually reads.
//
// Usage:
//
//	nessa-datagen [-dataset CIFAR-10] [-out file.bin] [-verify]
//
// Without -dataset it summarizes the whole registry.
package main

import (
	"flag"
	"fmt"
	"os"

	"nessa"
)

func main() {
	dataset := flag.String("dataset", "", "dataset to generate (empty = summarize registry)")
	out := flag.String("out", "", "optionally write the encoded dataset image to this file")
	verify := flag.Bool("verify", false, "decode the stored image and verify it matches")
	flag.Parse()

	if *dataset == "" {
		summarize()
		return
	}
	spec, ok := nessa.LookupDataset(*dataset)
	if !ok {
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	train, test := nessa.Generate(spec)
	img, err := nessa.EncodeDataset(train)
	if err != nil {
		fatal(err)
	}
	dev, err := nessa.NewSmartSSD()
	if err != nil {
		fatal(err)
	}
	if err := dev.StoreDataset(spec.Name, img); err != nil {
		fatal(err)
	}
	fmt.Printf("dataset:        %s\n", spec)
	fmt.Printf("sim train/test: %d / %d samples, %d features\n", train.Len(), test.Len(), spec.FeatureDim)
	fmt.Printf("record size:    %d bytes/sample\n", spec.BytesPerImage)
	fmt.Printf("stored image:   %.2f MB (%.2f MB allocated on drive)\n",
		float64(len(img))/1e6, float64(dev.SSD.Used())/1e6)
	fmt.Printf("paper scale:    %d images, %.2f GB on disk\n", spec.Train, float64(spec.PaperBytes())/1e9)
	fmt.Printf("write time:     %v (simulated)\n", dev.Acct.Time("ssd.write"))

	if *verify {
		buf, _, err := dev.ReadResilient(spec.Name, 0, int64(len(img)), train.Len(), nil, nessa.RetryPolicy{MaxAttempts: 1})
		if err != nil {
			fatal(err)
		}
		back, err := nessa.DecodeDataset(spec, buf)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < train.Len(); i++ {
			if back.Labels[i] != train.Labels[i] {
				fatal(fmt.Errorf("verify: label mismatch at sample %d", i))
			}
		}
		fmt.Printf("verify:         OK (%d samples round-tripped; P2P read %v)\n",
			back.Len(), dev.Acct.Time("p2p.read"))
	}
	if *out != "" {
		if err := os.WriteFile(*out, img, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func summarize() {
	fmt.Printf("%-14s %8s %8s %10s %12s %10s\n", "dataset", "classes", "train", "bytes/img", "disk (GB)", "sim train")
	for _, s := range nessa.Datasets() {
		fmt.Printf("%-14s %8d %8d %10d %12.2f %10d\n",
			s.Name, s.Classes, s.Train, s.BytesPerImage, float64(s.PaperBytes())/1e9, s.SimTrain)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nessa-datagen:", err)
	os.Exit(1)
}
