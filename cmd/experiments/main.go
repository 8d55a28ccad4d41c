// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) against the synthetic benchmark, printing the results in
// the layout recorded in EXPERIMENTS.md.
//
//	experiments                 # run everything at the default scale
//	experiments -run fig2       # one experiment
//	experiments -scale 1 -v     # paper-scale workload with progress logging
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"svqact/internal/bench"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (empty = all)")
		scale   = flag.Float64("scale", 0.25, "dataset scale relative to the paper's video volumes")
		seed    = flag.Int64("seed", 42, "dataset and model seed")
		workers = flag.Int("workers", 0, "videos ingested/evaluated concurrently (<= 0 = GOMAXPROCS)")
		verbose = flag.Bool("v", false, "log progress to stderr")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-22s %s\n", e.ID, e.Desc)
		}
		return
	}

	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	w := bench.NewWorkspace(bench.Options{Scale: *scale, Seed: *seed, Workers: *workers, Log: log})

	var selected []bench.Experiment
	if *run == "" {
		selected = bench.Experiments
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := bench.Find(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, *e)
		}
	}

	fmt.Printf("SVQ-ACT experiment suite — scale %.2f, seed %d\n", *scale, *seed)
	fmt.Printf("=====================================================\n\n")
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("## %s — %s (%v)\n\n", e.ID, e.Desc, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
}
