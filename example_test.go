package nessa_test

import (
	"fmt"

	"nessa"
)

// ExampleGenerate shows dataset generation from the Table 1 registry.
func ExampleGenerate() {
	spec, _ := nessa.LookupDataset("CIFAR-10")
	train, test := nessa.Generate(spec)
	fmt.Println(train.Len(), "train samples,", test.Len(), "test samples,", spec.Classes, "classes")
	// Output: 3000 train samples, 1000 test samples, 10 classes
}

// ExampleSelectCoreset selects weighted medoids from raw features.
func ExampleSelectCoreset() {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 400, 100
	train, _ := nessa.Generate(spec)

	res, err := nessa.SelectCoreset(train.X, train.ClassIndex(), 40, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var weightSum float32
	for _, w := range res.Weights {
		weightSum += w
	}
	fmt.Printf("%d medoids represent %.0f samples\n", len(res.Selected), weightSum)
	// Output: 40 medoids represent 400 samples
}

// ExampleNewSmartSSD stores a dataset on the simulated device and
// reads it back over the P2P link.
func ExampleNewSmartSSD() {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 100, 10
	train, _ := nessa.Generate(spec)

	dev, _ := nessa.NewSmartSSD()
	img, _ := nessa.EncodeDataset(train)
	if err := dev.StoreDataset("mnist", img); err != nil {
		fmt.Println("error:", err)
		return
	}
	buf, _, _ := dev.ReadResilient("mnist", 0, int64(len(img)), train.Len(), nil, nessa.RetryPolicy{MaxAttempts: 1})
	back, _ := nessa.DecodeDataset(spec, buf)
	fmt.Println("round-tripped", back.Len(), "records; P2P bytes:", dev.Acct.Bytes("p2p.read"))
	// Output: round-tripped 100 records; P2P bytes: 51200
}
