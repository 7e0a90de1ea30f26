package core

import (
	"reflect"
	"testing"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/selection"
	"nessa/internal/trainer"
)

// TestSeedReachesEveryStream holds every seeded constructor in library
// code to its seed: each row draws from seed 3 and from seed 4, and the
// two draws must differ. A constructor that drops its seed for a
// constant (or for a constant plus an index) draws the same values
// twice and fails its row. A new seeded constructor adds a row here.
func TestSeedReachesEveryStream(t *testing.T) {
	rows := []struct {
		name string
		draw func(seed uint64) any
	}{
		{"trainer.New", func(seed uint64) any {
			cfg := trainer.Default()
			cfg.Seed = seed
			return trainer.New(tinySpec(), cfg).Model.Layers[0].W.Data
		}},
		{"faults.NewInjector", func(seed uint64) any {
			in := faults.NewInjector(faults.Profile{Seed: seed, TransientRate: 0.5})
			fates := make([]bool, 64)
			for i := range fates {
				fates[i] = in.FlashRead().Transient
			}
			return fates
		}},
		{"data.Generate", func(seed uint64) any {
			spec := tinySpec()
			spec.Seed = seed
			train, _ := data.Generate(spec)
			return train.X.Data
		}},
		// Modes 1, Spread 0 and HardFrac 0 make a record its class
		// center, so this row sees only the mixture's stream.
		{"RecordStream mixture", func(seed uint64) any {
			spec := tinySpec()
			spec.Seed, spec.Modes, spec.Spread, spec.HardFrac = seed, 1, 0, 0
			s, err := data.NewRecordStream(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			features := make([]float32, spec.FeatureDim)
			s.Sample(0, features)
			return features
		}},
		// Labels see only the per-record streams.
		{"RecordStream records", func(seed uint64) any {
			spec := tinySpec()
			spec.Seed, spec.NoiseFrac = seed, 0.2
			s, err := data.NewRecordStream(spec, 512)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]int, s.N)
			feats := make([]float32, spec.FeatureDim)
			for i := range labels {
				labels[i] = s.Sample(i, feats)
			}
			return labels
		}},
		{"selection.ClassStream", func(seed uint64) any {
			return selection.ClassStream(seed, 2).Uint64()
		}},
	}
	for _, r := range rows {
		if reflect.DeepEqual(r.draw(3), r.draw(4)) {
			t.Errorf("%s: seeds 3 and 4 draw the same values; the seed does not reach the stream", r.name)
		}
	}
}
