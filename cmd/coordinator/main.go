// Command coordinator fronts a sharded SVQ-ACT cluster: it scatters ranked
// queries over shard replica sets (cmd/serve -shard-name processes), merges
// the per-shard top-k with RVAQ's bounds as a distributed threshold, and
// degrades gracefully when replicas or whole shards are lost.
//
//	coordinator -addr :8090 \
//	  -shard s0=http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	  -shard s1=http://127.0.0.1:8083
//
// POST /query takes {"sql": "..."} and POST /query/batch takes
// {"queries": ["...", ...]}; every answer carries a shards
// {ok, degraded, failed} partition. Replica failover, retries with
// deterministic backoff jitter, optional hedged requests, and per-replica
// circuit breakers are internal/cluster's; /healthz, /shards and /metrics
// expose the cluster state. An admission gate (-admit-concurrent,
// -admit-queue, -admit-wait) sheds excess load with 429 + Retry-After
// before the shards saturate, and POST /rollout walks shard replica sets
// through a health-gated rolling generation swap (`svq rollout` drives
// it).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/httpd"
	"svqact/internal/obs"
)

// shardFlags collects repeatable -shard name=url1,url2 declarations.
type shardFlags []cluster.ShardSpec

func (s *shardFlags) String() string { return fmt.Sprint(len(*s), " shards") }

func (s *shardFlags) Set(v string) error {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" || urls == "" {
		return fmt.Errorf("want name=url1,url2,..., got %q", v)
	}
	spec := cluster.ShardSpec{Name: name}
	for i, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u == "" {
			return fmt.Errorf("shard %s: empty replica URL", name)
		}
		spec.Replicas = append(spec.Replicas,
			cluster.NewHTTPBackend(fmt.Sprintf("%s-r%d", name, i), u, nil))
	}
	*s = append(*s, spec)
	return nil
}

func main() {
	var shards shardFlags
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		qTimeout = flag.Duration("query-timeout", 30*time.Second, "whole scatter-gather deadline (all refinement rounds)")
		sTimeout = flag.Duration("shard-timeout", 0, "per-shard attempt-set deadline (0 = query-timeout)")
		attempts = flag.Int("attempts-per-replica", 2, "retry budget per replica per round")
		backoff  = flag.Duration("base-backoff", 20*time.Millisecond, "first retry backoff (doubles per attempt, deterministic jitter)")
		maxBack  = flag.Duration("max-backoff", time.Second, "retry backoff ceiling")
		hedge    = flag.Duration("hedge-after", 0, "race a second replica when an attempt is slower than this (0 disables hedging)")
		hedgeQ   = flag.Float64("hedge-quantile", 0.95, "observed shard latency quantile that can raise the hedge delay")
		seed     = flag.Uint64("seed", 42, "seed of the deterministic backoff jitter")
		brkN     = flag.Int("breaker-threshold", 5, "consecutive replica failures that open its circuit breaker")
		brkCool  = flag.Duration("breaker-cooloff", 5*time.Second, "open-breaker cooloff before a half-open probe")
		health   = flag.Duration("health-interval", 2*time.Second, "background replica health-probe interval (0 disables)")

		admitN    = flag.Int("admit-concurrent", 16, "concurrently executing scatter-gathers before new arrivals queue")
		admitQ    = flag.Int("admit-queue", 32, "admission queue depth behind the concurrency limit (-1 disables queueing)")
		admitWait = flag.Duration("admit-wait", 2*time.Second, "longest a request may queue for admission before a 429")

		traceCap    = flag.Int("trace-capacity", 256, "retained traces kept in memory for /debug/traces")
		traceSample = flag.Int("trace-sample", 16, "keep 1 in N healthy fast query traces (errors, degraded and tail-latency traces are always kept; < 0 disables sampling)")
	)
	flag.Var(&shards, "shard", "shard declaration name=url1,url2,... (repeatable; first replica is the primary)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "coordinator: at least one -shard name=url1,url2 is required")
		os.Exit(2)
	}
	c, err := cluster.New(shards, cluster.Config{
		QueryTimeout:       *qTimeout,
		ShardTimeout:       *sTimeout,
		AttemptsPerReplica: *attempts,
		MaxConcurrent:      *admitN,
		QueueDepth:         *admitQ,
		QueueWait:          *admitWait,
		BaseBackoff:        *backoff,
		MaxBackoff:         *maxBack,
		HedgeAfter:         *hedge,
		HedgeQuantile:      *hedgeQ,
		Seed:               *seed,
		Breaker:            cluster.BreakerConfig{Threshold: *brkN, Cooloff: *brkCool},
		Logger:             logger,
		Traces:             obs.NewTraceStore(obs.TraceStoreConfig{Capacity: *traceCap, SampleEvery: *traceSample}),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(2)
	}

	if *health > 0 {
		stopHealth := c.StartHealthChecks(context.Background(), *health)
		defer stopHealth()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Writes must outlast the slowest scatter-gather: batches run
		// entries sequentially, so budget several query timeouts.
		WriteTimeout: 8**qTimeout + 10*time.Second,
		IdleTimeout:  60 * time.Second,
	}
	if err := httpd.Serve(context.Background(), "svq-act cluster coordinator", hs, 30*time.Second, logger); err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
}
