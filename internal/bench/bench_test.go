package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "test",
		Title:  "A test table",
		Note:   "a note",
		Header: []string{"A", "LongHeader"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")

	var text bytes.Buffer
	if err := tab.Render(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"TEST", "A test table", "a note", "LongHeader", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "A,LongHeader" || lines[2] != "333,4" {
		t.Fatalf("bad CSV: %q", csv.String())
	}
}

func TestFigure1ShapeRisesAcrossDecade(t *testing.T) {
	tab := Figure1()
	if len(tab.Rows) < 8 {
		t.Fatalf("figure1 has %d rows, want the decade of models", len(tab.Rows))
	}
	// First (AlexNet) epoch-seconds column must be far below the last
	// (ViT-L).
	first := tab.Rows[0][4]
	last := tab.Rows[len(tab.Rows)-1][4]
	if !(len(first) < len(last)) && first >= last {
		t.Errorf("epoch time did not grow: %s -> %s", first, last)
	}
}

func TestFigure2EndpointsMatchPaper(t *testing.T) {
	tab := Figure2()
	if len(tab.Rows) != 4 {
		t.Fatalf("figure2 has %d rows, want 4", len(tab.Rows))
	}
	// MNIST row: movement ~5.4 %; ImageNet-100 row: ~40.4 %.
	mnist := tab.Rows[0]
	in100 := tab.Rows[3]
	if mnist[0] != "MNIST" || in100[0] != "ImageNet-100" {
		t.Fatalf("unexpected row order: %v / %v", mnist, in100)
	}
	checkPct(t, "MNIST movement", mnist[3], 4.0, 7.0)
	checkPct(t, "ImageNet-100 movement", in100[3], 35.0, 48.0)
}

func checkPct(t *testing.T, name, cell string, lo, hi float64) {
	t.Helper()
	var v float64
	if _, err := fmtSscan(cell, &v); err != nil {
		t.Fatalf("%s: cannot parse %q", name, cell)
	}
	if v < lo || v > hi {
		t.Errorf("%s = %v, want in [%v, %v]", name, v, lo, hi)
	}
}

func TestTable4MatchesPaperUtilization(t *testing.T) {
	tab := Table4()
	want := map[string]float64{"LUT": 67.53, "FF": 23.14, "BRAM": 50.30, "DSP": 42.67}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("cannot parse %q", row[3])
		}
		target := want[row[0]]
		if v < target-0.5 || v > target+0.5 {
			t.Errorf("%s utilization = %v, want ~%v", row[0], v, target)
		}
	}
}

func TestFigure6ThroughputShape(t *testing.T) {
	tab := Figure6()
	var prev float64 = -1
	var cifar, in100 float64
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("cannot parse %q", row[3])
		}
		if v < prev {
			t.Errorf("throughput not monotone at %s: %v < %v", row[0], v, prev)
		}
		prev = v
		switch row[0] {
		case "CIFAR-10":
			cifar = v
		case "ImageNet-100":
			in100 = v
		}
	}
	if cifar < 1.3 || cifar > 1.6 {
		t.Errorf("CIFAR-10 throughput = %v GB/s, paper measures 1.46", cifar)
	}
	if in100 < 2.1 || in100 > 2.5 {
		t.Errorf("ImageNet-100 throughput = %v GB/s, paper measures 2.28", in100)
	}
}

func TestFigure4Ordering(t *testing.T) {
	rows := Figure4Rows(0.28)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]time.Duration{}
	for _, r := range rows {
		byName[r.Method] = r.Total
		if r.Total <= 0 {
			t.Errorf("%s total time is non-positive", r.Method)
		}
	}
	nessa, craig := byName["NeSSA"], byName["CRAIG (CPU)"]
	kc, full := byName["K-Centers (CPU)"], byName["Full dataset"]
	// The paper's Fig 4 ordering: NeSSA fastest; CRAIG comparable to
	// full; k-Centers slowest (slower than training on everything).
	if !(nessa < craig && nessa < full && nessa < kc) {
		t.Errorf("NeSSA (%v) is not the fastest: craig=%v full=%v kc=%v", nessa, craig, full, kc)
	}
	if kc <= full {
		t.Errorf("k-Centers (%v) should be slower than full training (%v)", kc, full)
	}
	if craig > 2*full {
		t.Errorf("CRAIG (%v) should be comparable to full training (%v)", craig, full)
	}
	// NeSSA's per-epoch advantage should be a real multiple.
	if ratio := full.Seconds() / nessa.Seconds(); ratio < 1.5 {
		t.Errorf("NeSSA per-epoch speed-up = %.2fx, want > 1.5x", ratio)
	}
}

func TestMethodEpochTimesBiggerDatasetsBiggerWins(t *testing.T) {
	// §4.4: "as the dataset size increases, storage-assisted training
	// becomes more effective". ImageNet-100's NeSSA speed-up should
	// beat CIFAR-10's.
	speedup := func(name string) float64 {
		spec, ok := lookupSpec(name)
		if !ok {
			t.Fatalf("missing dataset %s", name)
		}
		rows := MethodEpochTimes(spec, 0.3)
		return rows[3].Total.Seconds() / rows[0].Total.Seconds()
	}
	small := speedup("CIFAR-10")
	big := speedup("ImageNet-100")
	if big <= small {
		t.Errorf("ImageNet-100 speed-up (%.2fx) not above CIFAR-10's (%.2fx)", big, small)
	}
}

func TestSection44AverageNearPaper(t *testing.T) {
	tab := Section44(map[string]float64{
		"CIFAR-10": 0.28, "SVHN": 0.15, "CINIC-10": 0.30,
		"CIFAR-100": 0.38, "TinyImageNet": 0.34, "ImageNet-100": 0.28,
	})
	// With the paper's own Table 2 subset ratios the average reduction
	// should land near the paper's 3.47×.
	var avg float64
	for _, row := range tab.Rows {
		if row[0] == "AVERAGE" {
			if _, err := fmtSscan(strings.TrimSuffix(row[3], "x"), &avg); err != nil {
				t.Fatalf("cannot parse %q", row[3])
			}
		}
	}
	if avg < 3.0 || avg > 4.2 {
		t.Errorf("average movement reduction = %.2fx, paper reports 3.47x", avg)
	}
}

func TestQuickAccuracyRunPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	spec, _ := lookupSpec("CIFAR-10")
	r, err := AccuracyRun(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Full.FinalAcc < 0.5 || r.NeSSA.Metrics.FinalAcc < 0.5 {
		t.Errorf("quick runs did not learn: full=%.3f nessa=%.3f",
			r.Full.FinalAcc, r.NeSSA.Metrics.FinalAcc)
	}
	if r.CRAIG == nil || r.KC == nil {
		t.Fatal("baseline runs missing")
	}

	tab := Table2([]DatasetRun{r})
	if len(tab.Rows) != 1 {
		t.Fatalf("table2 rows = %d, want 1", len(tab.Rows))
	}
	fig5 := Figure5([]DatasetRun{r}, 5)
	if len(fig5.Rows) == 0 || len(fig5.Header) != 3 {
		t.Fatalf("figure5 shape wrong: %d rows, %d cols", len(fig5.Rows), len(fig5.Header))
	}
	s43 := Section43([]DatasetRun{r})
	if len(s43.Rows) != 2 { // dataset + average
		t.Fatalf("section4.3 rows = %d, want 2", len(s43.Rows))
	}
	fr := FinalSubsetFracs([]DatasetRun{r})
	if fr["CIFAR-10"] <= 0 || fr["CIFAR-10"] > 1 {
		t.Fatalf("bad final subset frac %v", fr["CIFAR-10"])
	}
}

func TestQuickTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	res, err := RunTable3([]float64{0.2}, true)
	if err != nil {
		t.Fatal(err)
	}
	tab := Table3(res)
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 8 {
		t.Fatalf("table3 shape = %dx%d, want 1x8", len(tab.Rows), len(tab.Rows[0]))
	}
	for _, v := range Table3Variants() {
		accs := res.Acc[v]
		if len(accs) != 1 || accs[0] <= 0.3 {
			t.Errorf("%s accuracy %v implausibly low", v, accs)
		}
	}
}

func TestScaleSpecFloors(t *testing.T) {
	spec, _ := lookupSpec("TinyImageNet")
	q := scaleSpec(spec, true)
	if q.SimTrain < q.Classes*15 {
		t.Errorf("quick scale starves many-class dataset: %d samples for %d classes", q.SimTrain, q.Classes)
	}
	full := scaleSpec(spec, false)
	if full.SimTrain != spec.SimTrain {
		t.Error("non-quick scaling should be identity")
	}
}

func TestEpochsOrFallback(t *testing.T) {
	if epochsOr(-1, 9) != 9 || epochsOr(3, 9) != 3 {
		t.Error("epochsOr wrong")
	}
}
