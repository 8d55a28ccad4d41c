package series

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func file(values map[string][]float64) *File {
	n := 0
	for _, v := range values {
		n = len(v)
	}
	f := &File{Entries: map[string][]Entry{}}
	for i := 0; i < n; i++ {
		var e Entry
		for name, v := range values {
			e.Benches = append(e.Benches, Bench{Name: name, Value: v[i], Unit: "ms"})
		}
		f.Entries[suite] = append(f.Entries[suite], e)
	}
	return f
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := Spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if Spread([]float64{3}) != 0 {
		t.Error("one value has a spread")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := &Manifest{EndToEnd: []Bound{
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "closed_qps", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "better_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "absent_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	m.Workloads = append(m.Workloads, struct {
		Name string `json:"name"`
	}{"online"})
	base := file(map[string][]float64{
		"online/p50_ms":     {10, 10.1, 9.9, 10, 10.05},
		"online/closed_qps": {300, 301, 299, 300, 302},
		"online/noisy_ms":   {10, 14, 8, 12, 9},
		"online/better_ms":  {10, 14, 8, 12, 9},
	})
	change := file(map[string][]float64{
		"online/p50_ms":     {12, 12.1, 11.9, 12, 12.2}, // 20 % slower: regressed
		"online/closed_qps": {280, 281, 279, 282, 280},  // 6.7 % fewer: within bound
		"online/noisy_ms":   {11, 15, 9, 12, 10},        // spread wider than bound
		"online/better_ms":  {5, 6, 7, 6.5, 5.5},        // noisy, but every run better
	})
	want := map[string]string{"p50_ms": Regressed, "closed_qps": OK, "noisy_ms": Unresolved, "better_ms": OK, "absent_ms": Missing}
	rows := Compare(m, base, change)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s, want %s (worse %.3f, spreads %.3f %.3f)", r.Metric, r.Verdict, want[r.Metric], r.Worse, r.SpreadBase, r.SpreadNew)
		}
	}
	var buf bytes.Buffer
	Print(&buf, rows)
	if !strings.Contains(buf.String(), "regressed") || !strings.Contains(buf.String(), "base median") {
		t.Errorf("printed table lacks the verdict or the base:\n%s", buf.String())
	}
}

func TestAppendAndLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	for i := 0; i < 2; i++ {
		if err := Append(path, Entry{Commit: Commit{ID: "abc"}, Benches: []Bench{{Name: "online/p50_ms", Value: float64(5 + i), Unit: "ms"}}}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.values()["online/p50_ms"]; len(got) != 2 || got[1] != 6 {
		t.Errorf("values = %v", got)
	}
	if f.Entries[suite][0].Tool != suite || f.LastUpdate == 0 {
		t.Error("entry not stamped")
	}
}
