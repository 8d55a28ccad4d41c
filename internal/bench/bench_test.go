package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The tests share one small-scale workspace; experiments cache datasets and
// indexes inside it.
var (
	wsOnce sync.Once
	ws     *Workspace
)

func workspace(t *testing.T) *Workspace {
	t.Helper()
	wsOnce.Do(func() {
		ws = NewWorkspace(Options{Scale: 0.25, Seed: 42})
	})
	return ws
}

// cell parses a float out of a table cell like "0.83", "3.20x" or "1.2s; 34".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "x")
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

func TestTableFormat(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("longer", "x")
	out := tb.Format()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "longer") {
		t.Errorf("format output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("expected 5 lines, got %d", len(lines))
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) < 12 {
		t.Fatalf("only %d experiments registered", len(Experiments))
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig2", "fig3", "table3", "table4", "table5", "fig4", "fig5", "table6", "table7", "table8"} {
		if Find(id) == nil {
			t.Errorf("experiment %s missing", id)
		}
	}
	if Find("nope") != nil {
		t.Error("unknown id should return nil")
	}
}

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	// Figure 2 needs paper-length streams: the adaptive estimator's fixed
	// warm-up must be a small fraction of the stream for its flatness to
	// show, so this test runs at a larger scale than the shared workspace.
	tables, err := Fig2(NewWorkspace(Options{Scale: 0.6, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("want 2 panels, got %d", len(tables))
	}
	for _, tb := range tables {
		var svaq, svaqd []float64
		for _, row := range tb.Rows {
			svaq = append(svaq, cell(t, row[1]))
			svaqd = append(svaqd, cell(t, row[2]))
		}
		// SVAQD must be nearly flat across six orders of magnitude of p0.
		lo, hi := minmax(svaqd)
		if hi-lo > 0.30 {
			t.Errorf("%s: SVAQD spread %.2f too high (%v)", tb.Title, hi-lo, svaqd)
		}
		if hi < 0.5 {
			t.Errorf("%s: SVAQD never reaches a usable F1 (%v)", tb.Title, svaqd)
		}
		// SVAQ must depend on p0 substantially more than SVAQD.
		qlo, qhi := minmax(svaq)
		if (qhi - qlo) < (hi-lo)+0.15 {
			t.Errorf("%s: SVAQ spread %.2f not clearly above SVAQD spread %.2f",
				tb.Title, qhi-qlo, hi-lo)
		}
	}
}

func minmax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func TestFig3SVAQDDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Fig3(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 12 {
		t.Fatalf("want 12 queries, got %d", len(rows))
	}
	var sumQ, sumD float64
	for _, row := range rows {
		q, d := cell(t, row[3]), cell(t, row[4])
		sumQ += q
		sumD += d
		if d < 0.45 {
			t.Errorf("%s: SVAQD F1 %.2f too low", row[0], d)
		}
	}
	if sumD < sumQ-0.05 {
		t.Errorf("SVAQD mean F1 %.3f below SVAQ %.3f", sumD/12, sumQ/12)
	}
}

func TestTable4ModelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Table4(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("want 3 model rows")
	}
	// Ideal models must reach (near-)perfect F1 for both algorithms.
	for col := 1; col <= 2; col++ {
		if v := cell(t, rows[2][col]); v < 0.95 {
			t.Errorf("ideal models col %d F1 = %.2f, want ~1.0", col, v)
		}
		mask, yolo := cell(t, rows[0][col]), cell(t, rows[1][col])
		if mask < yolo-0.05 {
			t.Errorf("col %d: MaskRCNN F1 %.2f below YOLOv3 %.2f", col, mask, yolo)
		}
	}
}

func TestTable5NoiseReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Table5(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		actRaw, actF := cell(t, row[1]), cell(t, row[2])
		objRaw, objF := cell(t, row[3]), cell(t, row[4])
		if actRaw <= 0 || objRaw <= 0 {
			t.Errorf("%s: raw FPRs should be positive (%v, %v)", row[0], actRaw, objRaw)
		}
		if actF > actRaw {
			t.Errorf("%s: SVAQD increased action FPR: %.3f -> %.3f", row[0], actRaw, actF)
		}
		if objF > objRaw*0.8 {
			t.Errorf("%s: SVAQD object FPR reduction too weak: %.3f -> %.3f", row[0], objRaw, objF)
		}
	}
}

func TestFig4MoreSequencesWithSmallerClips(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Fig4(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		// SVAQ shows the raw fragmentation effect: strictly non-increasing
		// sequence counts as clips grow. SVAQD's adaptive thresholds damp
		// the effect at this scale, so it only gets a loose bound.
		firstQ, lastQ := cell(t, tb.Rows[0][1]), cell(t, tb.Rows[len(tb.Rows)-1][1])
		if lastQ > firstQ {
			t.Errorf("%s: SVAQ sequences grew with clip size: %v -> %v", tb.Title, firstQ, lastQ)
		}
		firstD, lastD := cell(t, tb.Rows[0][2]), cell(t, tb.Rows[len(tb.Rows)-1][2])
		if lastD > firstD+3 {
			t.Errorf("%s: SVAQD sequences grew sharply with clip size: %v -> %v", tb.Title, firstD, lastD)
		}
	}
}

func TestFig5FrameF1Stable(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Fig5(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		var vals []float64
		for _, row := range tb.Rows {
			vals = append(vals, cell(t, row[2]))
		}
		lo, hi := minmax(vals)
		if hi-lo > 0.3 {
			t.Errorf("%s: frame-level F1 varies too much with clip size: %v", tb.Title, vals)
		}
	}
}

func TestRuntimeDecompositionInferenceDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := RuntimeDecomposition(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	share := tables[0].Rows[0][2]
	v, err := strconv.ParseFloat(strings.TrimSuffix(share, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 90 {
		t.Errorf("inference share %.1f%%, expected to dominate (>90%%)", v)
	}
}

func TestTable6AlgorithmOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Table6(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows // FA, RVAQ-noSkip, Pq-Traverse, RVAQ
	for col := 1; col < len(rows[0]); col++ {
		fa := cell(t, rows[0][col])
		noskip := cell(t, rows[1][col])
		trav := cell(t, rows[2][col])
		rvaq := cell(t, rows[3][col])
		if rvaq > noskip+1e-9 {
			t.Errorf("col %d: RVAQ runtime %.2f above noSkip %.2f", col, rvaq, noskip)
		}
		if rvaq > fa+1e-9 {
			t.Errorf("col %d: RVAQ runtime %.2f above FA %.2f", col, rvaq, fa)
		}
		if rvaq > trav+1e-9 {
			t.Errorf("col %d: RVAQ runtime %.2f above Pq-Traverse %.2f", col, rvaq, trav)
		}
		// At small K, FA and noSkip must both pay clearly more than RVAQ —
		// the skip set is the point of the comparison. At K near the
		// candidate count every algorithm converges to Pq-Traverse. (FA vs
		// noSkip order is a documented deviation: with certified TBClip
		// bounds, noSkip can land above FA; see EXPERIMENTS.md Table 6.)
		if col == 1 {
			if fa < 2*rvaq {
				t.Errorf("col %d: FA runtime %.2f not clearly above RVAQ %.2f", col, fa, rvaq)
			}
			if noskip < 2*rvaq {
				t.Errorf("col %d: noSkip runtime %.2f not clearly above RVAQ %.2f", col, noskip, rvaq)
			}
		}
	}
}

func TestTable8SpeedupDecaysWithK(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := Table8(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		first := cell(t, row[1])
		last := cell(t, row[len(row)-1])
		if first < 1.0 {
			t.Errorf("%s: K=1 speedup %.2f < 1", row[0], first)
		}
		if last > first+0.25 {
			t.Errorf("%s: speedup at max K (%.2f) should not exceed K=1 (%.2f)", row[0], last, first)
		}
	}
}

func TestRemainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	w := workspace(t)
	for _, id := range []string{"table3", "table7", "accuracy", "ablation-order", "ablation-shortcircuit", "ablation-horizon"} {
		e := Find(id)
		if e == nil {
			t.Fatalf("experiment %s missing", id)
		}
		tables, err := e.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestDriftSVAQDAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := DriftExperiment(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows // SVAQ, SVAQD
	svaq, svaqd := cell(t, rows[0][1]), cell(t, rows[1][1])
	if svaqd < svaq+0.15 {
		t.Errorf("SVAQD overall F1 %.2f should clearly beat SVAQ %.2f under drift", svaqd, svaq)
	}
	// The adaptive estimate must have moved from the 1e-4 prior towards the
	// real clutter rate.
	pD := cell(t, rows[1][4])
	if pD < 0.003 {
		t.Errorf("SVAQD background estimate %.4f did not adapt", pD)
	}
}

func TestExtendedQueriesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("workload experiment")
	}
	tables, err := ExtendedQueries(workspace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("want 4 query rows, got %d", len(rows))
	}
	for _, row := range rows {
		noisy, ideal := cell(t, row[2]), cell(t, row[3])
		if ideal < 0.5 {
			t.Errorf("%s: ideal-model F1 %.2f too low", row[0], ideal)
		}
		if noisy > ideal+0.1 {
			t.Errorf("%s: noisy models (%v) should not beat ideal (%v)", row[0], noisy, ideal)
		}
	}
}
