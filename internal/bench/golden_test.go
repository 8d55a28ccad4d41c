package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// testdata/experiments.golden is the evaluation EXPERIMENTS.md quotes: every
// experiment at scale 1.0, seed 42 (go run ./cmd/experiments -scale 1.0
// -seed 42), then the ablations the document quotes at scale 0.25. Cells a
// run's own timing reaches are masked (maskWallClock); every other cell —
// F1, counts, priced inference cost — must repeat byte for byte. Regenerate
// only when a figure is meant to move, and say which cells moved:
// go test ./internal/bench -run ExperimentsGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/bench/testdata/experiments.golden from the current code")

// goldenAblations are the experiments EXPERIMENTS.md quotes at scale 0.25.
var goldenAblations = []string{"ablation-order", "ablation-planner", "ablation-shortcircuit", "ablation-horizon", "ablation-cascade"}

// wallClockCell stands in for a masked cell.
const wallClockCell = "~"

// maskWallClock blanks the cells of t that add measured time: the runtime
// decomposition's engine-processing and total rows and every share, the
// offline tables' runtimes (priced accesses plus the measured CPU of the
// run; the access counts after them stay) and Table 8's speedups, which are
// ratios of those runtimes.
func maskWallClock(t *Table) {
	switch {
	case strings.HasPrefix(t.Title, "Runtime decomposition"):
		for _, row := range t.Rows {
			row[2] = wallClockCell
			if row[0] == "engine processing (measured)" || row[0] == "SVAQD total" {
				row[1] = wallClockCell
			}
		}
	case strings.HasPrefix(t.Title, "Table 6:"), strings.HasPrefix(t.Title, "Table 7:"):
		for _, row := range t.Rows {
			for i, c := range row[1:] {
				if j := strings.Index(c, "; "); j >= 0 {
					row[1+i] = wallClockCell + c[j:]
				}
			}
		}
	case strings.HasPrefix(t.Title, "Table 8:"):
		for _, row := range t.Rows {
			for i := 1; i < len(row); i++ {
				row[i] = wallClockCell
			}
		}
	}
}

// renderSuite runs the experiments over a fresh workspace at scale, seed 42,
// in cmd/experiments' layout without the section timings.
func renderSuite(t *testing.T, sb *strings.Builder, scale float64, ids []string) {
	t.Helper()
	w := NewWorkspace(Options{Scale: scale, Seed: 42})
	fmt.Fprintf(sb, "SVQ-ACT experiment suite — scale %.2f, seed 42\n\n", scale)
	for _, id := range ids {
		e := Find(id)
		tables, err := e.Run(w)
		if err != nil {
			t.Fatalf("%s at scale %.2f: %v", id, scale, err)
		}
		fmt.Fprintf(sb, "## %s — %s\n\n", e.ID, e.Desc)
		for i := range tables {
			maskWallClock(&tables[i])
			fmt.Fprintln(sb, tables[i].Format())
		}
	}
}

// TestExperimentsGolden checks the paper's evaluation as EXPERIMENTS.md
// records it against testdata/experiments.golden.
func TestExperimentsGolden(t *testing.T) {
	var all []string
	for _, e := range Experiments {
		all = append(all, e.ID)
	}
	var sb strings.Builder
	renderSuite(t, &sb, 1.0, all)
	renderSuite(t, &sb, 0.25, goldenAblations)
	got := sb.String()

	const path = "testdata/experiments.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<eof>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("experiments.golden drifted at line %d:\n got %s\nwant %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("experiments.golden drifted: got %d lines, want %d", len(gl), len(wl))
}
