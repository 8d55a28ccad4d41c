// Package workload defines the benchmark's four traffic mixes and everything
// needed to run one: the synthetic world and (for ranked traffic) its
// ingested repository, the seeded statement pools, the deployments of real
// processes (or in-process handlers for the smoke test), and the oracle
// every answer is checked against.
package workload

import (
	"fmt"
	"time"
)

// Scale is the dataset scale every workload runs at: the paper's durations
// (Tables 1 and 2), 379 videos and about 20.5k clips in all.
const Scale = 1.0

// Shards is the size of the sharded deployment.
const Shards = 3

// Spec is one workload: which processes run, what is sent where, how fast.
type Spec struct {
	Name string
	// Why records the reason the workload exists: which layers it keeps
	// busy and which it leaves idle.
	Why string
	// Path is the endpoint requests are POSTed to.
	Path string
	// Rate is the fixed open-loop arrival rate in requests per second,
	// about a third of this commit's closed-loop capacity on the 2-CPU
	// reference host. It is a constant of the benchmark: identical on both
	// sides of any comparison, never re-tuned.
	Rate float64
	// Limit is the latency a request sent in the open loop must meet.
	Limit time.Duration
	// Ranked workloads query an ingested repository; the others evaluate
	// streams online.
	Ranked bool
	// Sharded fronts Shards repository shards with a coordinator.
	Sharded bool
	// RefClientOpenMS and RefClientClosedMS are the load generator's own
	// CPU time per request in the open and in the closed phases, at this
	// commit on the reference host: the yardstick that time metrics are
	// brought back to (see README.md, "host speed").
	RefClientOpenMS, RefClientClosedMS float64
	// Fleet serves with -cascade and -workers nproc, the configuration in
	// which /query/batch exercises the worker pool and the tier pricing.
	Fleet bool
}

// Specs lists the workloads in the order they are reported.
var Specs = []Spec{
	{
		Name:              "online",
		Why:               "single-stream online statements: core, detect, scanstat, kernel and plan do the work; rank, store and cluster are idle",
		Path:              "/query",
		Rate:              110,
		Limit:             50 * time.Millisecond,
		RefClientOpenMS:   0.477,
		RefClientClosedMS: 0.294,
	},
	{
		Name:              "fleet",
		Why:               "one video set per /query/batch: the same core layer as a worker pool with shared planner, contended critical-value cache, cascade tiers and 20 KB+ responses",
		Path:              "/query/batch",
		Rate:              45,
		Limit:             100 * time.Millisecond,
		RefClientOpenMS:   0.916,
		RefClientClosedMS: 0.743,
		Fleet:             true,
	},
	{
		Name:              "ranked",
		Why:               "top-k statements over an ingested repository: rank and store do the work, core and detect are idle at query time; setup times the write path",
		Path:              "/query",
		Rate:              150,
		Limit:             50 * time.Millisecond,
		RefClientOpenMS:   0.444,
		RefClientClosedMS: 0.258,
		Ranked:            true,
	},
	{
		Name:              "sharded",
		Why:               "the ranked pool and rate through a coordinator over three shards: sharded minus ranked is the cluster layer's cost",
		Path:              "/query",
		Rate:              150,
		Limit:             50 * time.Millisecond,
		RefClientOpenMS:   0.457,
		RefClientClosedMS: 0.256,
		Ranked:            true,
		Sharded:           true,
	},
}

// ByName returns the named workload.
func ByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}
