package selection

import "testing"

func TestTopLossPicksLargestLosses(t *testing.T) {
	losses := []float32{0.1, 5.0, 0.2, 3.0, 0.05, 4.0}
	cand := []int{0, 1, 2, 3, 4, 5}
	res, err := TopLoss(losses, cand, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 5, 3}
	for i, s := range res.Selected {
		if s != want[i] {
			t.Fatalf("Selected = %v, want %v", res.Selected, want)
		}
	}
	for _, w := range res.Weights {
		if w != 2 {
			t.Fatalf("weight = %v, want n/k = 2", w)
		}
	}
}

func TestTopLossRestrictedCandidates(t *testing.T) {
	losses := []float32{9, 8, 7, 6}
	res, err := TopLoss(losses, []int{2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 2 {
		t.Fatalf("selected %d, want 2 (largest loss among candidates)", res.Selected[0])
	}
}

func TestTopLossErrors(t *testing.T) {
	if _, err := TopLoss([]float32{1}, []int{0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopLoss([]float32{1}, nil, 1); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := TopLoss([]float32{1}, []int{5}, 1); err == nil {
		t.Error("out-of-range candidate accepted")
	}
}

func TestTopLossClampsK(t *testing.T) {
	res, err := TopLoss([]float32{1, 2}, []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %d, want 2", len(res.Selected))
	}
}
