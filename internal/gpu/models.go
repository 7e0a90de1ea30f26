package gpu

// ModelProfile is the compute profile of one image-classification
// architecture: forward GFLOPs per image at its native input
// resolution, plus parameter count for transfer-size modelling.
type ModelProfile struct {
	Name          string
	Year          int     // publication year (Fig 1 x-axis)
	ForwardGFLOPs float64 // per image
	MParams       float64 // millions of parameters
}

// Fig1Catalog returns the decade of ImageNet-1k classifiers whose
// per-epoch training time Fig 1 plots, in chronological order. FLOP
// counts are the standard published per-image forward costs at each
// model's native resolution.
func Fig1Catalog() []ModelProfile {
	return []ModelProfile{
		{Name: "AlexNet", Year: 2012, ForwardGFLOPs: 0.72, MParams: 61},
		{Name: "VGG-16", Year: 2014, ForwardGFLOPs: 15.5, MParams: 138},
		{Name: "GoogLeNet", Year: 2014, ForwardGFLOPs: 1.5, MParams: 6.8},
		{Name: "ResNet-50", Year: 2015, ForwardGFLOPs: 4.1, MParams: 25.6},
		{Name: "ResNet-152", Year: 2016, ForwardGFLOPs: 11.5, MParams: 60.2},
		{Name: "DenseNet-201", Year: 2017, ForwardGFLOPs: 4.3, MParams: 20},
		{Name: "SENet-154", Year: 2018, ForwardGFLOPs: 20.7, MParams: 115},
		{Name: "EfficientNet-B7", Year: 2019, ForwardGFLOPs: 37, MParams: 66},
		{Name: "ViT-L/16", Year: 2021, ForwardGFLOPs: 61.6, MParams: 307},
	}
}

// networkProfile maps the Table 1 target networks (at each dataset's
// input resolution) to their per-image forward cost. These drive the
// GPU-side timing of Table 2 / Figs 2 and 4.
//
//	ResNet-20      — CIFAR-style 32×32 (He et al. CIFAR variant)
//	ResNet-18      — CIFAR-style 32×32
//	ResNet-18@64   — TinyImageNet 64×64 (4× the pixels of 32×32)
//	ResNet-50      — ImageNet-style 224×224
func networkProfile(name string) (ModelProfile, bool) {
	switch name {
	case "ResNet-20":
		return ModelProfile{Name: "ResNet-20", Year: 2015, ForwardGFLOPs: 0.041, MParams: 0.27}, true
	case "ResNet-18":
		return ModelProfile{Name: "ResNet-18", Year: 2015, ForwardGFLOPs: 0.556, MParams: 11.2}, true
	case "ResNet-18@64":
		return ModelProfile{Name: "ResNet-18@64", Year: 2015, ForwardGFLOPs: 2.22, MParams: 11.2}, true
	case "ResNet-50":
		return ModelProfile{Name: "ResNet-50", Year: 2015, ForwardGFLOPs: 4.1, MParams: 25.6}, true
	}
	return ModelProfile{}, false
}

// DatasetNetwork resolves a Table 1 dataset's network name (adjusting
// ResNet-18 to its 64×64 variant for TinyImageNet).
func DatasetNetwork(dataset, network string) (ModelProfile, bool) {
	if dataset == "TinyImageNet" && network == "ResNet-18" {
		return networkProfile("ResNet-18@64")
	}
	return networkProfile(network)
}
