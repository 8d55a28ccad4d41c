// Command svqbench is the repository's served-query benchmark. It builds
// cmd/serve and cmd/coordinator, generates a workload's inputs from a seed,
// starts the real processes on loopback, checks every answer against an
// in-process oracle, drives load from this one process over nproc
// connections, and prints every metric by name with its unit.
//
//	go run ./benchmarks/svqbench --workload online --seed 1
//	go run ./benchmarks/svqbench --seed 1                 # all four workloads
//	go run ./benchmarks/svqbench --workload ranked --trace 1
//	go run ./benchmarks/svqbench --compare a.json b.json
//
// See benchmarks/README.md for the definition of every metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"svqact/benchmarks/workload"
)

// buildDir is where binaries, repositories and Go's own caches go: inside
// the checkout, ignored by git.
const buildDir = ".bench_build"

// outDir keeps what a failed run leaves for inspection (child stderr) and
// the traced pass's span files.
const outDir = "benchmarks/out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: online, fleet, ranked or sharded (empty = all four)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input: datasets, statement sequence, arrival schedule")
		seconds = flag.Int("seconds", 12, "seconds of timed load per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced single-client pass and prints the per-layer metrics instead")
		out     = flag.String("out", "", "append this run's metrics to a results series file")
		compare = flag.Bool("compare", false, "compare two results files given as arguments against the bounds of BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace != 0, *out); err != nil {
		fmt.Fprintln(os.Stderr, "svqbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds int, traced bool, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	specs := workload.Specs
	if name != "" {
		spec, err := workload.ByName(name)
		if err != nil {
			return err
		}
		specs = []workload.Spec{spec}
	}
	env, err := build()
	if err != nil {
		return err
	}
	var results []*result
	for _, spec := range specs {
		workDir, err := os.MkdirTemp(buildDir, "run-")
		if err != nil {
			return err
		}
		cfg := runConfig{spec: spec, seed: seed, seconds: seconds, env: env, workDir: workDir, reps: setupReps, scale: workload.Scale}
		if traced {
			cfg.reps = 1 // set-up time is an untraced run's to report
		}
		res, err := runWorkload(ctx, cfg, traced)
		if rmErr := os.RemoveAll(workDir); err == nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("workload %s: %w", spec.Name, err)
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	if out != "" {
		if err := appendSeries(out, seed, seconds, results); err != nil {
			return err
		}
	}
	// The last line of standard output is the machine-readable result of
	// the (last) workload run.
	fmt.Println(results[len(results)-1].contractJSON())
	for _, r := range results {
		if !r.correct() {
			return fmt.Errorf("workload %s: %d of %d operations failed, %d reasons the run is invalid", r.workload, r.failed, r.attempted, len(r.invalid))
		}
	}
	return nil
}

// build compiles the binaries under test into the build directory. It must
// run from the repository root, where go.mod is.
func build() (workload.Env, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return workload.Env{}, fmt.Errorf("run from the repository root: %w", err)
	}
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return workload.Env{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/serve", "./cmd/coordinator")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return workload.Env{}, fmt.Errorf("building the servers: %v\n%s", err, outp)
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return workload.Env{}, err
	}
	return workload.Env{BinDir: abs, OutDir: outDir, NProc: runtime.NumCPU()}, nil
}
