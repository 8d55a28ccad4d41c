package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"svqact/benchmarks/series"
)

// commitID names the code being measured: HEAD, marked when the work tree
// differs from it, or "unknown" outside a git checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		id += "+worktree"
	}
	return id
}

// appendSeries adds this invocation's results to a series file as one entry.
func appendSeries(path string, seed uint64, seconds int, results []*result) error {
	e := series.Entry{
		Commit: series.Commit{ID: commitID()},
		Config: series.Config{Seed: seed, Seconds: seconds, CPUs: runtime.NumCPU(), Go: runtime.Version()},
	}
	for _, r := range results {
		e.Config.Traced = r.traced
		for _, m := range r.metrics {
			e.Benches = append(e.Benches, series.Bench{Name: r.workload + "/" + m.name, Value: m.value, Unit: m.unit})
		}
		for _, m := range r.notes {
			e.Benches = append(e.Benches, series.Bench{Name: r.workload + "/" + m.name, Value: m.value, Unit: m.unit, Extra: "diagnostic"})
		}
	}
	return series.Append(path, e)
}

// runCompare prints one row per (metric, workload) for two results files and
// returns the exit code: 1 when a metric regressed, 2 on bad usage.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "svqbench: --compare takes two results files: base.json change.json")
		return 2
	}
	m, err := series.LoadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "svqbench:", err)
		return 2
	}
	var files [2]*series.File
	for i, path := range args {
		if _, err := os.Stat(path); err != nil {
			fmt.Fprintln(os.Stderr, "svqbench:", err)
			return 2
		}
		if files[i], err = series.Load(path); err != nil {
			fmt.Fprintln(os.Stderr, "svqbench:", err)
			return 2
		}
	}
	rows := series.Compare(m, files[0], files[1])
	series.Print(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == series.Regressed {
			return 1
		}
	}
	return 0
}
