// Package series is the benchmark's committed results format and its
// comparison rule. A results file is a list of entries, one per run, each a
// list of named benches with a value and a unit — the shape of
// github-action-benchmark's data.js, so a series can be charted by commit.
package series

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"time"

	"svqact/benchmarks/loadgen"
)

// Bench is one measured value of one workload.
type Bench struct {
	// Name is "<workload>/<metric>".
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Extra says how the value was obtained when the name does not.
	Extra string `json:"extra,omitempty"`
}

// Commit identifies the code an entry measured.
type Commit struct {
	ID string `json:"id"`
}

// Config is what a run was given; only entries with equal configs compare.
type Config struct {
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	Traced  bool   `json:"traced"`
	CPUs    int    `json:"cpus"`
	Go      string `json:"go"`
}

// Entry is one run.
type Entry struct {
	Commit  Commit  `json:"commit"`
	Date    int64   `json:"date"` // Unix milliseconds
	Tool    string  `json:"tool"`
	Config  Config  `json:"config"`
	Benches []Bench `json:"benches"`
}

// File is a results series.
type File struct {
	LastUpdate int64              `json:"lastUpdate"`
	Entries    map[string][]Entry `json:"entries"`
}

// suite is the one key of File.Entries this tool writes.
const suite = "svqbench"

// Load reads a series; a missing file is an empty series.
func Load(path string) (*File, error) {
	f := &File{Entries: map[string][]Entry{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return f, nil
	}
	if err != nil {
		return nil, fmt.Errorf("series: %w", err)
	}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("series: %s: %w", path, err)
	}
	if f.Entries == nil {
		f.Entries = map[string][]Entry{}
	}
	return f, nil
}

// Append adds an entry and writes the series back.
func Append(path string, e Entry) error {
	f, err := Load(path)
	if err != nil {
		return err
	}
	e.Tool = suite
	if e.Date == 0 {
		e.Date = time.Now().UnixMilli()
	}
	f.Entries[suite] = append(f.Entries[suite], e)
	f.LastUpdate = e.Date
	return f.write(path)
}

// write stores the series with one entry per line: a run appended is one
// line added, which keeps the committed series' history readable.
func (f *File) write(path string) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"lastUpdate\":%d,\"entries\":{%q:[", f.LastUpdate, suite)
	for i, e := range f.Entries[suite] {
		raw, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("series: %w", err)
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		buf.Write(raw)
	}
	buf.WriteString("\n]}}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("series: %w", err)
	}
	return nil
}

// values collects every untraced entry's value per bench name.
func (f *File) values() map[string][]float64 {
	out := map[string][]float64{}
	for _, e := range f.Entries[suite] {
		if e.Config.Traced {
			continue
		}
		for _, b := range e.Benches {
			out[b.Name] = append(out[b.Name], b.Value)
		}
	}
	return out
}

// Bound is one end-to-end metric's regression rule from BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Manifest is the part of BENCHMARK.json a comparison needs.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Bound `json:"end_to_end"`
}

// LoadManifest reads BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("series: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("series: %s: %w", path, err)
	}
	return &m, nil
}

// Verdicts of one (metric, workload) row.
const (
	OK         = "ok"
	Regressed  = "regressed"
	Unresolved = "unresolved"
	Missing    = "missing"
)

// Row is the comparison of one metric on one workload.
type Row struct {
	Workload, Metric, Unit string
	// Base and New are the medians of the two files; Worse is how much
	// worse New is than Base as a share of Base (negative = better).
	Base, New, Worse float64
	// SpreadBase and SpreadNew are each file's interquartile range as a
	// share of its median.
	SpreadBase, SpreadNew float64
	Bound                 float64
	Runs                  [2]int
	Verdict               string
}

// Spread is the distance between the first and third quartile as a share of
// the median, quartiles by the exclusive method (Python's
// statistics.quantiles default). Fewer than two values have no spread.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := loadgen.Median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

// Compare applies the manifest's bounds to two series. A metric whose median
// got worse by more than its bound has regressed; when either side's spread
// is wider than the bound the difference cannot be resolved — unless every
// new run reads better than every base run.
func Compare(m *Manifest, base, change *File) []Row {
	bv, cv := base.values(), change.values()
	var rows []Row
	for _, w := range m.Workloads {
		for _, b := range m.EndToEnd {
			key := w.Name + "/" + b.Name
			r := Row{Workload: w.Name, Metric: b.Name, Unit: b.Unit, Bound: b.Bound, Runs: [2]int{len(bv[key]), len(cv[key])}}
			if len(bv[key]) == 0 || len(cv[key]) == 0 {
				r.Verdict = Missing
				rows = append(rows, r)
				continue
			}
			r.Base, r.New = loadgen.Median(bv[key]), loadgen.Median(cv[key])
			r.SpreadBase, r.SpreadNew = Spread(bv[key]), Spread(cv[key])
			sign := 1.0
			if b.Better == "higher" {
				sign = -1
			}
			if r.Base != 0 {
				r.Worse = sign * (r.New - r.Base) / r.Base
			}
			allBetter := true
			for _, n := range cv[key] {
				for _, o := range bv[key] {
					if sign*(n-o) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case (r.SpreadBase > b.Bound || r.SpreadNew > b.Bound) && !allBetter:
				r.Verdict = Unresolved
			case r.Worse > b.Bound:
				r.Verdict = Regressed
			default:
				r.Verdict = OK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// Print writes one line per row, every ratio with its base.
func Print(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-8s %-22s %12s %12s %-6s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "base median", "new median", "unit", "worse by", "spread0", "spread1", "bound", "verdict")
	for _, r := range rows {
		if r.Verdict == Missing {
			fmt.Fprintf(w, "%-8s %-22s %12s %12s %-6s %9s %8s %8s %6.2f  %s (runs %d vs %d)\n",
				r.Workload, r.Metric, "-", "-", r.Unit, "-", "-", "-", r.Bound, r.Verdict, r.Runs[0], r.Runs[1])
			continue
		}
		fmt.Fprintf(w, "%-8s %-22s %12.5g %12.5g %-6s %+8.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, 100*r.Worse, 100*r.SpreadBase, 100*r.SpreadNew, 100*r.Bound, r.Verdict)
	}
	fmt.Fprintln(w, strings.TrimSpace(`
"worse by" and both spreads are shares of the base median resp. of each file's own median; medians over the untraced runs of each file.`))
}
