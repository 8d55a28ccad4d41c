// Command serve runs the HTTP query API: POST statements of the SQL-like
// dialect to /query and get result sequences as JSON. POST any online
// statement — a basic conjunction, an OR-group, several actions or a
// relation — to /query/batch to evaluate the query-set source as a parallel
// fleet, one result per component video (-workers bounds the per-batch
// concurrency). Both routes execute through internal/stmt.
//
//	serve -addr :8080 -scale 0.25
//	curl -s localhost:8080/sources
//	curl -s -X POST localhost:8080/query -d '{"sql":
//	  "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
//	   WHERE act='"'"'blowing_leaves'"'"' AND obj.include('"'"'car'"'"')"}'
//
// The process installs the hardened serving stack: listener-level timeouts,
// per-query deadlines (see internal/server), admission control and a
// graceful SIGTERM/SIGINT shutdown that drains in-flight queries before
// exiting (internal/httpd, shared with cmd/coordinator). Operational state
// is observable at /healthz (admission JSON), /metrics (Prometheus text
// format) and, with -pprof, /debug/pprof/. Logs are structured JSON lines
// on stderr (log/slog).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"svqact/internal/detect"
	"svqact/internal/httpd"
	"svqact/internal/obs"
	"svqact/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		scale     = flag.Float64("scale", 0.25, "dataset scale relative to the paper")
		seed      = flag.Int64("seed", 42, "dataset and model seed")
		timeout   = flag.Duration("query-timeout", 30*time.Second, "per-query execution deadline")
		conc      = flag.Int("max-concurrent", 8, "queries executing at once")
		queue     = flag.Int("queue-depth", 16, "requests allowed to wait for a slot")
		wait      = flag.Duration("queue-wait", 2*time.Second, "max wait for an execution slot")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		workers   = flag.Int("workers", 0, "videos evaluated concurrently per /query/batch fleet (<= 0 = GOMAXPROCS)")
		repoDir   = flag.String("repo", "", "serve offline (RVAQ) queries from this saved repository (built with cmd/ingest); SIGHUP or POST /repo/reload picks up new generations")
		cascade   = flag.Bool("cascade", false, "run the detectors as tiered cascades (distilled cheap tier in front of each model; identical results, lower cost)")
		infBudget = flag.Duration("budget", 0, "default per-query inference budget (simulated model time); 0 means unlimited. A request's budget_ms overrides it")
		shard     = flag.String("shard-name", "", "serve as one shard of a cluster: answers carry X-SVQ-Shard and per-shard truncation bounds for the coordinator (see cmd/coordinator)")

		faultTransient = flag.Float64("fault-transient", 0, "injected transient detector failure rate [0,1)")
		faultPermanent = flag.Float64("fault-permanent", 0, "injected permanent detector failure rate [0,1)")
		faultSpike     = flag.Float64("fault-spike", 0, "injected latency spike rate [0,1)")
		faultDelay     = flag.Duration("fault-spike-delay", 5*time.Millisecond, "injected latency spike duration")
		retries        = flag.Int("detect-retries", 3, "attempts per detector invocation")
		budget         = flag.Float64("failure-budget", 0.25, "max fraction of clips flagged before a query degrades")

		traceCap    = flag.Int("trace-capacity", 256, "retained traces kept in memory for /debug/traces")
		traceSample = flag.Int("trace-sample", 16, "keep 1 in N healthy fast query traces (errors, degraded and tail-latency traces are always kept; < 0 disables sampling)")

		withPprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	retry := detect.DefaultRetryConfig()
	retry.Attempts = *retries
	cfg := server.Config{
		Scale:           *scale,
		Seed:            *seed,
		QueryTimeout:    *timeout,
		MaxConcurrent:   *conc,
		QueueDepth:      *queue,
		QueueWait:       *wait,
		Retry:           retry,
		FailureBudget:   *budget,
		Workers:         *workers,
		RepoDir:         *repoDir,
		Cascade:         *cascade,
		InferenceBudget: *infBudget,
		ShardName:       *shard,
		Logger:          logger,
		Traces:          obs.NewTraceStore(obs.TraceStoreConfig{Capacity: *traceCap, SampleEvery: *traceSample}),
	}
	if *faultTransient > 0 || *faultPermanent > 0 || *faultSpike > 0 {
		fc := &detect.FaultConfig{
			TransientRate: *faultTransient,
			PermanentRate: *faultPermanent,
			SpikeRate:     *faultSpike,
			SpikeDelay:    *faultDelay,
			Seed:          *seed,
		}
		if err := fc.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(2)
		}
		cfg.Fault = fc
		logger.Info("fault injection on",
			"transient", *faultTransient, "permanent", *faultPermanent,
			"spike", *faultSpike, "spike_delay", faultDelay.String())
	}
	srv := server.New(cfg)
	if *repoDir != "" {
		// The initial load must succeed — serving from a repository that
		// never loaded would fail every offline query. Later reloads
		// (SIGHUP, /repo/reload) are allowed to fail: the loaded
		// generation keeps serving.
		if err := srv.Reload(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := srv.Reload(); err != nil {
					logger.Warn("SIGHUP reload failed; previous repository keeps serving", "error", err.Error())
				}
			}
		}()
	}

	handler := srv.Handler()
	if *withPprof {
		// Compose pprof onto an outer mux so the server's handler keeps
		// owning every other route (including its recovery middleware).
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Writes must outlast the slowest admitted query plus queue wait.
		WriteTimeout: *timeout + *wait + 10*time.Second,
		IdleTimeout:  60 * time.Second,
	}
	if err := httpd.Serve(context.Background(), "svq-act query server", hs, *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
