// Package server exposes the query engine over HTTP: statements of the
// SQL-like dialect are POSTed to /query and executed against the benchmark
// datasets — streaming (SVAQ/SVAQD) or ranked offline (RVAQ with lazy
// ingestion) according to the statement's plan.
//
// The serving path is hardened for unattended operation: every query runs
// under a deadline and the client's cancellation, and the internal/httpd
// front it shares with the cluster coordinator bounds the number of
// concurrent queries (excess requests wait briefly, then get 429 with
// Retry-After), limits request bodies, and contains handler panics as JSON
// 500s instead of tearing down the connection.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/httpd"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/stmt"
	"svqact/internal/synth"
)

// Config parameterises a server instance.
type Config struct {
	// Scale and Seed control the benchmark datasets served.
	Scale float64
	Seed  int64

	// QueryTimeout bounds the execution of one query; 0 means 30s and a
	// negative value disables the deadline (the client's disconnect still
	// cancels).
	QueryTimeout time.Duration
	// MaxConcurrent bounds the queries executing at once; 0 means 8.
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for an execution slot
	// beyond MaxConcurrent; 0 means 16. Requests beyond the queue are
	// rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// giving up with 429; 0 means 2s.
	QueueWait time.Duration
	// MaxBodyBytes bounds the /query request body; 0 means 1 MiB.
	MaxBodyBytes int64

	// Workers bounds the videos a /query/batch fleet evaluates concurrently;
	// <= 0 means GOMAXPROCS. A request's "workers" field, when positive,
	// overrides it per batch.
	Workers int

	// RepoDir, when set, answers offline (RVAQ) statements from the saved
	// repository at that directory instead of lazily ingesting the
	// synthetic datasets. Call Reload (or POST /repo/reload) to load it and
	// to pick up newly committed generations without restarting.
	RepoDir string

	// ShardName, when set, marks this process as one shard of a cluster:
	// every response carries it in the X-SVQ-Shard header and /healthz
	// reports it, so a coordinator (and an operator reading traces) can
	// attribute answers to shards.
	ShardName string

	// Cascade runs the detectors as tiered cascades: a recall-complete
	// distilled cheap tier in front of each accurate model, with the
	// planner pricing per-query tier decisions. Results are identical to
	// the accurate models alone; only cost and the tier observability
	// change.
	Cascade bool
	// InferenceBudget caps the simulated inference cost of one online
	// query; 0 means unlimited. A request's budget_ms field, when positive,
	// overrides it per query. Exhaustion degrades gracefully: remaining
	// clips are skipped-and-flagged and the plan report carries the budget
	// block.
	InferenceBudget time.Duration

	// Fault, when set, wraps the detection models with the fault injector —
	// the operational testbed for the retry and skip-and-flag machinery.
	// With Cascade it composes per tier: each tier keeps its own fault
	// realisation and its own retry budget.
	Fault *detect.FaultConfig
	// Retry and FailureBudget configure the engines built per query; zero
	// values take the core defaults.
	Retry         detect.RetryConfig
	FailureBudget float64

	// Logger receives structured operational log lines (one per query,
	// plus panic reports); nil means slog.Default().
	Logger *slog.Logger

	// Registry receives the server's metrics and serves /metrics; nil means
	// a fresh registry per server, keeping test instances independent.
	Registry *obs.Registry

	// Traces is the retained trace store behind /debug/traces (errors,
	// degraded answers, tail latency, and a sampled remainder); nil means a
	// default-sized one.
	Traces *obs.TraceStore
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Traces == nil {
		c.Traces = obs.NewTraceStore(obs.TraceStoreConfig{})
	}
	return c
}

// Server resolves query sources against the benchmark datasets and caches
// offline indexes per source. It is safe for concurrent use.
type Server struct {
	cfg    Config
	models detect.Models
	start  time.Time
	log    *slog.Logger
	reg    *obs.Registry
	traces *obs.TraceStore

	// gate admits /query and /query/batch requests. It and the outcome
	// counters live on the registry, so /healthz and /metrics read the same
	// instruments.
	gate   *httpd.Gate
	served *obs.Counter
	panics *obs.Counter

	// latency is the end-to-end /query execution histogram; rankSorted and
	// rankRandom accumulate offline score-table accesses across queries.
	latency    *obs.Histogram
	rankSorted *obs.Counter
	rankRandom *obs.Counter

	// Predicate-planner instruments, fed from every query's plan report
	// (online, offline and batch alike).
	planQueries *obs.Counter
	planReplans *obs.Counter
	planSkipped *obs.Counter
	planSavedMS *obs.Counter

	// Tier instruments: queries whose plan carried a detector cascade,
	// units escalated past their entry tier, and inference-budget outcomes.
	planTierQueries     *obs.Counter
	planTierEscalations *obs.Counter
	planBudgetSkipped   *obs.Counter
	planBudgetExhausted *obs.Counter

	// Fleet instruments: batches served, end-to-end batch latency, and
	// per-outcome video counts across every /query/batch fleet.
	fleetBatches *obs.Counter
	fleetLatency *obs.Histogram
	fleetVideos  map[string]*obs.Counter

	// meter is the process-lifetime inference meter every engine charges
	// (wired through core.Config.Meter, so ingestion engines deep inside
	// rank charge it too).
	meter detect.Meter

	// Repository serving state (see repo.go): the live refcounted handle,
	// whether the last reload failed, and the durability instruments.
	repoMu         sync.Mutex
	repo           *repoHandle
	repoFailed     bool
	repoErr        string
	repoLoadedAt   time.Time
	repoGeneration *obs.Gauge
	repoMembers    *obs.Gauge
	repoReloads    map[string]*obs.Counter
	repoCorruption *obs.Counter
	repoRecoveries *obs.Counter

	once    sync.Once
	youtube *synth.Dataset
	movies  *synth.Dataset

	mu      sync.Mutex
	streams map[string]detect.TruthVideo
	indexes map[string]*rank.Index
}

// New creates a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	models := buildModels(cfg)
	s := &Server{
		cfg:     cfg,
		models:  models,
		start:   time.Now(),
		log:     cfg.Logger,
		reg:     cfg.Registry,
		traces:  cfg.Traces,
		streams: map[string]detect.TruthVideo{},
		indexes: map[string]*rank.Index{},
	}
	r := s.reg
	s.gate = httpd.NewGate(r, "svqact_queries", cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueWait, nil)
	s.served = r.Counter("svqact_queries_served_total",
		"Admitted queries whose handler completed (any status).")
	s.panics = httpd.Panics(r)
	httpd.EncodeFailures(r)
	s.latency = r.Histogram("svqact_query_duration_seconds",
		"End-to-end /query execution latency.", nil)
	s.rankSorted = r.Counter("svqact_rank_sorted_accesses_total",
		"Sorted score-table accesses performed by offline queries.")
	s.rankRandom = r.Counter("svqact_rank_random_accesses_total",
		"Random score-table accesses performed by offline queries.")
	s.planQueries = r.Counter("svqact_plan_queries_total",
		"Queries that executed with a predicate-ordering plan.")
	s.planReplans = r.Counter("svqact_plan_replans_total",
		"Times the adaptive predicate planner changed its evaluation order.")
	s.planSkipped = r.Counter("svqact_plan_skipped_evaluations_total",
		"Predicate evaluations avoided by short-circuiting under the plan.")
	s.planSavedMS = r.Counter("svqact_plan_saved_cost_ms_total",
		"Estimated simulated-inference milliseconds saved by plan short-circuiting.")
	s.planTierQueries = r.Counter("svqact_plan_tier_queries_total",
		"Queries whose plan priced detector cascade tiers.")
	s.planTierEscalations = r.Counter("svqact_plan_tier_escalations_total",
		"Units escalated past a cascade tier under the plan's tier decisions.")
	s.planBudgetSkipped = r.Counter("svqact_plan_tier_budget_skipped_clips_total",
		"Clips skipped-and-flagged after a query's inference budget ran out.")
	s.planBudgetExhausted = r.Counter("svqact_plan_tier_budget_exhausted_total",
		"Queries whose inference budget ran out before the stream did.")
	s.fleetBatches = r.Counter("svqact_fleet_batches_total",
		"Fleet evaluations served by /query/batch.")
	s.fleetLatency = r.Histogram("svqact_fleet_batch_duration_seconds",
		"End-to-end /query/batch fleet execution latency.", nil)
	s.fleetVideos = map[string]*obs.Counter{}
	for _, outcome := range []string{"ok", "degraded", "interrupted", "skipped", "error"} {
		s.fleetVideos[outcome] = r.Counter("svqact_fleet_videos_total",
			"Videos evaluated by /query/batch fleets, by outcome.",
			obs.L("outcome", outcome))
	}
	s.repoGeneration = r.Gauge("svqact_repo_generation",
		"Highest committed generation across the loaded repository's members.")
	s.repoMembers = r.Gauge("svqact_repo_members",
		"Member indexes in the loaded repository.")
	s.repoReloads = map[string]*obs.Counter{}
	for _, outcome := range []string{"ok", "error"} {
		s.repoReloads[outcome] = r.Counter("svqact_repo_reloads_total",
			"Repository reload attempts, by outcome.",
			obs.L("outcome", outcome))
	}
	s.repoCorruption = r.Counter("svqact_repo_corruption_total",
		"Repository reloads rejected because of a failed integrity check.")
	s.repoRecoveries = r.Counter("svqact_repo_recoveries_total",
		"Successful repository reloads that followed a failed one.")
	r.GaugeFunc("svqact_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.meter.Register(r)
	s.traces.Register(r)
	return s
}

// buildModels assembles the serving detection models: the base simulated
// models, optionally stacked into distilled cascades, optionally wrapped
// with the fault injector. Fault decorators compose per tier, so under
// -cascade each tier carries its own fault realisation and retry budget.
func buildModels(cfg Config) detect.Models {
	var obj detect.ObjectDetector = detect.NewObjectDetector(detect.MaskRCNN, cfg.Seed)
	var act detect.ActionRecognizer = detect.NewActionRecognizer(detect.I3D, cfg.Seed)
	if !cfg.Cascade {
		models := detect.NewModels(obj, act)
		if cfg.Fault != nil {
			models.Objects = detect.InjectObjectFaults(models.Objects, *cfg.Fault)
			models.Actions = detect.InjectActionFaults(models.Actions, *cfg.Fault)
		}
		return models
	}
	var objCheap detect.ObjectDetector = detect.NewDistilledObjectDetector(obj, detect.DistilledRCNN, cfg.Seed)
	var actCheap detect.ActionRecognizer = detect.NewDistilledActionRecognizer(act, detect.DistilledI3D, cfg.Seed)
	if cfg.Fault != nil {
		objCheap = detect.InjectObjectFaults(objCheap, *cfg.Fault)
		obj = detect.InjectObjectFaults(obj, *cfg.Fault)
		actCheap = detect.InjectActionFaults(actCheap, *cfg.Fault)
		act = detect.InjectActionFaults(act, *cfg.Fault)
	}
	return detect.NewModels(
		detect.NewObjectCascade(
			detect.ObjectTier{Detector: objCheap, Band: detect.RecallBand(), PriorEscalate: detect.DistilledRCNN.EscalationPrior(detect.RecallBand())},
			detect.ObjectTier{Detector: obj},
		),
		detect.NewActionCascade(
			detect.ActionTier{Recognizer: actCheap, Band: detect.RecallBand(), PriorEscalate: detect.DistilledI3D.EscalationPrior(detect.RecallBand())},
			detect.ActionTier{Recognizer: act},
		),
	)
}

// Registry returns the server's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// observePlan folds one query's plan report into the planner instruments.
func (s *Server) observePlan(rep *plan.Report) {
	if rep == nil {
		return
	}
	s.planQueries.Inc()
	s.planReplans.Add(int64(rep.Replans))
	s.planSkipped.Add(rep.SkippedEvaluations)
	s.planSavedMS.Add(int64(rep.SavedCostMS))
	if rep.Tiered {
		s.planTierQueries.Inc()
		var escalated int64
		for _, n := range rep.Nodes {
			for _, t := range n.Tiers {
				escalated += t.Escalated
			}
		}
		s.planTierEscalations.Add(escalated)
	}
	if b := rep.Budget; b != nil {
		s.planBudgetSkipped.Add(b.SkippedClips)
		if b.Exhausted {
			s.planBudgetExhausted.Inc()
		}
	}
}

func (s *Server) engineConfig() core.Config {
	cfg := core.DefaultConfig()
	if s.cfg.Retry.Attempts > 0 {
		cfg.Retry = s.cfg.Retry
	}
	if s.cfg.FailureBudget > 0 {
		cfg.FailureBudget = s.cfg.FailureBudget
	}
	cfg.InferenceBudget = s.cfg.InferenceBudget
	cfg.Meter = &s.meter
	return cfg
}

func (s *Server) datasets() (*synth.Dataset, *synth.Dataset) {
	s.once.Do(func() {
		s.youtube = synth.YouTube(synth.Options{Scale: s.cfg.Scale, Seed: s.cfg.Seed})
		s.movies = synth.Movies(synth.Options{Scale: s.cfg.Scale, Seed: s.cfg.Seed})
	})
	return s.youtube, s.movies
}

// Sources lists the resolvable PROCESS sources.
func (s *Server) Sources() []string {
	yt, mv := s.datasets()
	var out []string
	for _, q := range yt.Queries {
		out = append(out, q.Name)
	}
	for _, v := range mv.Videos {
		out = append(out, v.ID())
	}
	sort.Strings(out)
	return out
}

// resolve maps a PROCESS source to a stream; a source it cannot resolve is
// a notFoundError.
func (s *Server) resolve(name string) (detect.TruthVideo, error) {
	s.mu.Lock()
	if v, ok := s.streams[name]; ok {
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()

	yt, mv := s.datasets()
	var stream detect.TruthVideo
	if v := mv.Video(name); v != nil {
		stream = v
	} else if spec := yt.Query(name); spec != nil {
		var vids []*synth.Video
		for _, v := range yt.Videos {
			if !v.ActionPresence(spec.Action).Empty() {
				vids = append(vids, v)
			}
		}
		c, err := synth.NewConcat(name, vids)
		if err != nil {
			return nil, notFoundError{err}
		}
		stream = c
	} else {
		return nil, notFoundError{fmt.Errorf("unknown source %q", name)}
	}
	s.mu.Lock()
	s.streams[name] = stream
	s.mu.Unlock()
	return stream, nil
}

// videos maps a PROCESS source to the videos a fleet evaluates: a query
// set's component videos, or the one movie.
func (s *Server) videos(name string) ([]detect.TruthVideo, error) {
	stream, err := s.resolve(name)
	if vids := components(stream); vids != nil || err != nil {
		return vids, err
	}
	return []detect.TruthVideo{stream}, nil
}

// components lists a query set's component videos; nil for a single video.
func components(stream detect.TruthVideo) []detect.TruthVideo {
	var vids []detect.TruthVideo
	if c, ok := stream.(*synth.Concat); ok {
		for _, v := range c.Components() {
			vids = append(vids, v)
		}
	}
	return vids
}

// index lazily ingests a resolved source for offline queries.
func (s *Server) index(ctx context.Context, name string, stream detect.TruthVideo) (*rank.Index, error) {
	s.mu.Lock()
	if ix, ok := s.indexes[name]; ok {
		s.mu.Unlock()
		return ix, nil
	}
	s.mu.Unlock()
	icfg := rank.DefaultIngestConfig()
	icfg.Core = s.engineConfig()
	var ix *rank.Index
	var err error
	if tvs := components(stream); tvs != nil {
		ix, err = rank.IngestAllParallel(ctx, name, tvs, s.models, rank.PaperScoring(), icfg, 0)
	} else {
		ix, err = rank.Ingest(ctx, stream, s.models, rank.PaperScoring(), icfg)
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.indexes[name] = ix
	s.mu.Unlock()
	return ix, nil
}

// QueryRequest is the /query request body.
type QueryRequest struct {
	// SQL is a statement of the dialect.
	SQL string `json:"sql"`
	// Algo selects the online algorithm: "svaqd" (default) or "svaq".
	Algo string `json:"algo,omitempty"`
	// K, when positive, overrides the statement's LIMIT for offline
	// (ranked) plans. A cluster coordinator uses it to pull a deeper
	// top-k from a shard during distributed-threshold refinement without
	// rewriting the SQL text.
	K int `json:"k,omitempty"`
	// BudgetMS, when positive, caps this online query's simulated
	// inference spend (overriding the server's -budget default). Past the
	// budget the query degrades gracefully — remaining clips are
	// skipped-and-flagged and the plan report carries the budget block —
	// instead of erroring. A positive value a time.Duration cannot hold,
	// outside [minBudgetMS, httpd.MaxCount(time.Millisecond)], is refused
	// with a 400 rather than rounded.
	BudgetMS float64 `json:"budget_ms,omitempty"`
}

// minBudgetMS is one nanosecond in milliseconds: the smallest positive
// budget_ms httpd.ToDuration accepts.
const minBudgetMS = float64(time.Nanosecond) / float64(time.Millisecond)

// Sequence is one result sequence of a response.
type Sequence = stmt.Sequence

// QueryResponse is the /query response body: the statement's answer plus
// what the serving layer knows about the request.
type QueryResponse struct {
	// QueryID identifies the query across the response, the X-Query-ID
	// header, the trace and the server log line.
	QueryID string `json:"query_id,omitempty"`
	stmt.Answer
	ElapsedMS int64 `json:"elapsed_ms"`
	// Trace is the query's span tree: per-predicate evaluation, ranking
	// traversal and ingestion stages with durations and attributes.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// BatchRequest is the /query/batch request body: one online statement
// evaluated over every video of the source as a fleet.
type BatchRequest struct {
	// SQL is a statement of the dialect; its PROCESS source names the video
	// repository (a query set fans out per component video).
	SQL string `json:"sql"`
	// Algo selects the online algorithm: "svaqd" (default) or "svaq".
	Algo string `json:"algo,omitempty"`
	// Workers bounds the videos evaluated concurrently; 0 means the
	// server's -workers setting (itself defaulting to GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// BatchVideo is one video's outcome within a /query/batch response.
type BatchVideo struct {
	ID string `json:"id"`
	// Outcome is ok, degraded, interrupted, skipped or error.
	Outcome        string     `json:"outcome"`
	NumClips       int        `json:"num_clips,omitempty"`
	ProcessedClips int        `json:"processed_clips,omitempty"`
	FlaggedClips   int        `json:"flagged_clips,omitempty"`
	Sequences      []Sequence `json:"sequences,omitempty"`
	Error          string     `json:"error,omitempty"`
	ElapsedMS      int64      `json:"elapsed_ms"`
	// Trace is this video's own span tree (trace ID = the batch query ID
	// suffixed with the video ID) — per-entry observability parity with
	// /query, whose responses always carry their trace.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
	// live is the served video's trace, written in Trace's place straight
	// from its span tree instead of through a snapshot.
	live *obs.Trace
}

// BatchResponse is the /query/batch response body: per-video results in
// repository order plus the fleet-level aggregate.
type BatchResponse struct {
	QueryID   string `json:"query_id,omitempty"`
	Source    string `json:"source"`
	Mode      string `json:"mode"`
	Workers   int    `json:"workers"`
	NumVideos int    `json:"num_videos"`

	OK          int `json:"ok"`
	Degraded    int `json:"degraded,omitempty"`
	Interrupted int `json:"interrupted,omitempty"`
	Skipped     int `json:"skipped,omitempty"`
	Failed      int `json:"failed,omitempty"`

	TotalSequences int `json:"total_sequences"`
	FlaggedClips   int `json:"flagged_clips,omitempty"`

	// Plan is the fleet-cumulative report of the shared predicate planner
	// every video's run warm-started from.
	Plan *plan.Report `json:"plan,omitempty"`

	Videos    []BatchVideo `json:"videos"`
	ElapsedMS int64        `json:"elapsed_ms"`
	// Error is set when the fleet as a whole was cut short (the per-video
	// entries still carry whatever completed).
	Error string `json:"error,omitempty"`
	// Trace is the fleet span tree: one span per video plus the fleet root.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

type errorResponse struct {
	Error   string `json:"error"`
	QueryID string `json:"query_id,omitempty"`
	// Processed/Total report partial progress for interrupted or degraded
	// queries (clips processed before the query stopped).
	Processed int `json:"processed,omitempty"`
	Total     int `json:"total,omitempty"`
}

// Health is the /healthz response body.
type Health struct {
	Status        string  `json:"status"`
	Shard         string  `json:"shard,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int64   `json:"inflight"`
	Waiting       int64   `json:"waiting"`
	Capacity      int     `json:"capacity"`
	QueueDepth    int     `json:"queue_depth"`
	Served        uint64  `json:"served"`
	Rejected      uint64  `json:"rejected"`
	Panics        uint64  `json:"panics"`
	// Repo describes the loaded repository when serving one (-repo).
	Repo *RepoHealth `json:"repo,omitempty"`
}

// Health reports the server's live admission counters. It reads the same
// registry-backed instruments /metrics scrapes, so the two views agree.
func (s *Server) Health() Health {
	adm := s.gate.Health()
	return Health{
		Status:        "ok",
		Shard:         s.cfg.ShardName,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Inflight:      adm.Inflight,
		Waiting:       adm.Waiting,
		Capacity:      adm.Capacity,
		QueueDepth:    adm.QueueDepth,
		Served:        uint64(s.served.Value()),
		Rejected:      uint64(adm.Rejected),
		Panics:        uint64(s.panics.Value()),
		Repo:          s.repoHealth(),
	}
}

// Handler returns the HTTP handler. Every route runs under the
// panic-recovery middleware; /query additionally runs under admission
// control, the body size limit, and the per-query deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("/sources", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpd.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
			return
		}
		httpd.WriteJSON(w, http.StatusOK, map[string][]string{"sources": s.Sources()})
	})
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.traces.Handler())
	mux.Handle("/debug/traces/", s.traces.Handler())
	mux.HandleFunc("/repo/reload", s.handleRepoReload)
	mux.HandleFunc("/repo/status", s.handleRepoStatus)
	mux.Handle("/query", s.admit(http.HandlerFunc(s.handleQuery)))
	mux.Handle("/query/batch", s.admit(http.HandlerFunc(s.handleBatch)))
	var h http.Handler = mux
	if s.cfg.ShardName != "" {
		h = s.shardHeader(h)
	}
	return httpd.Recover(s.log, s.panics, h)
}

// shardHeader stamps every response with this process's shard identity.
func (s *Server) shardHeader(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-SVQ-Shard", s.cfg.ShardName)
		next.ServeHTTP(w, r)
	})
}

// admit runs a query route behind the admission gate: at most
// MaxConcurrent queries execute, at most QueueDepth more wait up to
// QueueWait for a slot, and everything beyond that is shed with 429 +
// Retry-After. An admitted query gets its ID and trace here, so queueing
// time is excluded but everything the handler does is covered.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := s.gate.Acquire(r.Context()); err != nil {
			httpd.Shed(w, err.(*httpd.OverloadError))
			return
		}
		defer s.gate.Release()
		trace := httpd.Mint(w, r)
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), trace)))
		s.served.Inc()
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	plan, ok := s.decode(w, r, &req, &req.SQL)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r)
	defer cancel()
	start := time.Now()
	resp, err := s.execute(ctx, plan, req)
	elapsed := time.Since(start)
	s.latency.ObserveDuration(elapsed)
	trace := obs.TraceFrom(ctx)
	if err != nil {
		s.fail(w, trace, req.SQL, err, elapsed)
		return
	}
	resp.QueryID, resp.ElapsedMS, resp.Trace = trace.ID(), elapsed.Milliseconds(), trace.Snapshot()
	s.logQuery(resp.QueryID, req.SQL, nil, http.StatusOK, elapsed)
	httpd.OfferTrace(s.traces, s.log, resp.Trace, req.SQL, "ok")
	httpd.WriteAppended(w, http.StatusOK, resp.appendJSON)
}

// handleBatch executes one online statement over every video of the source
// as a bounded-concurrency fleet (stmt.ExecuteFleet): per-video results
// stream into the fleet aggregate, per-video outcomes feed the fleet
// metrics, and the response carries the fleet trace with one span per video.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	plan, ok := s.decode(w, r, &req, &req.SQL)
	if !ok {
		return
	}
	workers := s.cfg.Workers
	if req.Workers > 0 {
		workers = req.Workers
	}
	ctx, cancel := s.deadline(r)
	defer cancel()
	start := time.Now()
	mode, fr, fleetErr := stmt.ExecuteFleet(ctx, plan, req.Algo, s.env(), core.FleetOptions{Workers: workers, PerVideoTrace: true})
	elapsed := time.Since(start)
	trace := obs.TraceFrom(ctx)
	if fr == nil {
		s.fail(w, trace, req.SQL, fleetErr, elapsed)
		return
	}
	s.fleetLatency.ObserveDuration(elapsed)
	s.fleetBatches.Inc()

	resp := newBatchResponse(fr, elapsed)
	resp.QueryID, resp.Source, resp.Mode, resp.Workers = trace.ID(), plan.Source, mode.String(), workers
	s.observePlan(fr.Plan)
	for _, bv := range resp.Videos {
		if c := s.fleetVideos[bv.Outcome]; c != nil {
			c.Inc()
		}
	}
	resp.Trace = trace.Snapshot()

	status := http.StatusOK
	if fleetErr != nil {
		// The fleet was cut short (deadline or disconnect): report 504 with
		// the partial per-video results attached.
		resp.Error = fleetErr.Error()
		status = http.StatusGatewayTimeout
	}
	s.logQuery(resp.QueryID, req.SQL, fleetErr, status, elapsed)
	httpd.OfferTrace(s.traces, s.log, resp.Trace, req.SQL, queryOutcome(fleetErr, status))
	httpd.WriteAppended(w, status, resp.appendJSON)
}

// newBatchResponse lays a fleet's results out as a /query/batch body, each
// video's trace left live for the body's writer.
func newBatchResponse(fr *core.FleetResult, elapsed time.Duration) *BatchResponse {
	resp := &BatchResponse{
		NumVideos: len(fr.Videos),
		OK:        fr.OK, Degraded: fr.Degraded, Interrupted: fr.Interrupted,
		Skipped: fr.Skipped, Failed: fr.Failed,
		TotalSequences: fr.TotalSequences, FlaggedClips: fr.FlaggedClips,
		Plan:      fr.Plan,
		ElapsedMS: elapsed.Milliseconds(),
	}
	for _, vr := range fr.Videos {
		bv := BatchVideo{ID: vr.ID, Outcome: vr.Outcome(), ElapsedMS: vr.Elapsed.Milliseconds(), live: vr.Trace}
		if vr.Err != nil {
			bv.Error = vr.Err.Error()
		}
		if res := vr.Result; res != nil {
			bv.NumClips = res.NumClips
			bv.ProcessedClips = res.Processed
			bv.FlaggedClips = res.Flagged.TotalLen()
			bv.Sequences = stmt.ClipSequences(res.Sequences, res.Geometry)
		}
		resp.Videos = append(resp.Videos, bv)
	}
	return resp
}

// decode reads a POSTed request body into req and parses and plans the
// statement at *sql — the one request decoder of /query and /query/batch.
// When it returns false it has answered the request: 405, 413, or 400 for a
// body that is not JSON or a statement that does not parse or plan.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any, sql *string) (sqlq.Plan, bool) {
	if !httpd.DecodeBody(w, r, s.cfg.MaxBodyBytes, req) {
		return sqlq.Plan{}, false
	}
	st, err := sqlq.Parse(*sql)
	var plan sqlq.Plan
	if err == nil {
		plan, err = st.Plan()
	}
	if err != nil {
		qid := obs.TraceFrom(r.Context()).ID()
		s.logQuery(qid, *sql, err, http.StatusBadRequest, 0)
		httpd.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), QueryID: qid})
		return sqlq.Plan{}, false
	}
	return plan, true
}

// deadline is a query's execution context: the client's, bounded by
// QueryTimeout when that is positive.
func (s *Server) deadline(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	}
	return context.WithCancel(r.Context())
}

// fail answers a query that produced no result: errorStatus picks the
// status, and the query log line and the retained trace store record it.
func (s *Server) fail(w http.ResponseWriter, trace *obs.Trace, sql string, err error, elapsed time.Duration) {
	status, body := errorStatus(err)
	body.QueryID = trace.ID()
	s.logQuery(body.QueryID, sql, err, status, elapsed)
	httpd.OfferTrace(s.traces, s.log, trace.Snapshot(), sql, queryOutcome(err, status))
	httpd.WriteJSON(w, status, body)
}

// logQuery emits the structured per-query log line: query ID, statement,
// outcome class and degraded/interrupted status.
func (s *Server) logQuery(qid, stmt string, err error, status int, elapsed time.Duration) {
	outcome := queryOutcome(err, status)
	attrs := []any{
		"query_id", qid, "statement", stmt, "outcome", outcome,
		"degraded", outcome == "degraded", "interrupted", outcome == "interrupted",
		"status", status, "elapsed_ms", elapsed.Milliseconds(),
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.log.Warn("query", attrs...)
		return
	}
	s.log.Info("query", attrs...)
}

// queryOutcome classifies a finished query for the log line and the
// retained trace store: "ok", "interrupted", "degraded", "bad_request" or
// "error".
func queryOutcome(err error, status int) string {
	var ie *core.InterruptedError
	var de *core.DegradedError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ie):
		return "interrupted"
	case errors.As(err, &de):
		return "degraded"
	case status == http.StatusBadRequest:
		return "bad_request"
	}
	return "error"
}

// errorStatus maps execution errors to HTTP statuses: unknown sources are
// 404; unknown algorithms, ranked batches, ranked predicates the index
// never ingested and out-of-range budgets are 400; interrupted queries
// (deadline or disconnect) are 504 with partial progress, degraded queries
// (failure budget exceeded) are 502, and everything else is 500.
func errorStatus(err error) (int, errorResponse) {
	var nf notFoundError
	if errors.As(err, &nf) {
		return http.StatusNotFound, errorResponse{Error: err.Error()}
	}
	var miss *rank.NotIngestedError
	var bad badRequestError
	if errors.Is(err, stmt.ErrUnknownAlgorithm) || errors.Is(err, stmt.ErrNotOnline) || errors.As(err, &miss) || errors.As(err, &bad) {
		return http.StatusBadRequest, errorResponse{Error: err.Error()}
	}
	var ie *core.InterruptedError
	if errors.As(err, &ie) {
		return http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Processed: ie.Processed, Total: ie.Total}
	}
	var de *core.DegradedError
	if errors.As(err, &de) {
		return http.StatusBadGateway, errorResponse{Error: err.Error(), Processed: de.Processed, Total: de.Total}
	}
	return http.StatusInternalServerError, errorResponse{Error: err.Error()}
}

type notFoundError struct{ error }

// badRequestError is a request field execute refuses.
type badRequestError struct{ error }

// env points stmt at this server's models, engine settings, sources and
// lazily ingested indexes.
func (s *Server) env() stmt.Env {
	return stmt.Env{Models: s.models, Engine: s.engineConfig(), Stream: s.resolve, Videos: s.videos, Index: s.index}
}

// execute answers one planned statement: it points stmt.Execute at this
// server's streams, lazily ingested indexes or loaded repository, and folds
// the answer's plan and table work into the serving metrics.
func (s *Server) execute(ctx context.Context, plan sqlq.Plan, req QueryRequest) (*QueryResponse, error) {
	if req.K > 0 && !plan.Online {
		plan.K = req.K
	}
	env := s.env()
	if req.BudgetMS > 0 {
		budget, ok := httpd.ToDuration(req.BudgetMS, time.Millisecond)
		if !ok {
			return nil, badRequestError{fmt.Errorf("budget_ms must be in [%g, %d], got %g", minBudgetMS, httpd.MaxCount(time.Millisecond), req.BudgetMS)}
		}
		env.Engine.InferenceBudget = budget
	}
	if !plan.Online && s.cfg.RepoDir != "" {
		// Repository-backed: rank over the whole saved repository (the
		// merged clip space spans every member; the PROCESS source names
		// the repository view, not one synthetic stream, and is never
		// resolved against the datasets). A reference on the handle keeps
		// the generation's files open across a reload.
		h := s.acquireRepo()
		if h == nil {
			return nil, fmt.Errorf("repository %s is not loaded (last reload failed?)", s.cfg.RepoDir)
		}
		defer h.release()
		m, err := h.repo.Merged()
		if err != nil {
			return nil, err
		}
		env.Repo, env.Generation, env.Shard = m, m.Generation, s.cfg.ShardName != ""
		if env.Generation == 0 {
			env.Generation = h.repo.MaxGeneration()
		}
	}
	ans, err := stmt.Execute(ctx, plan, req.Algo, env)
	if err != nil {
		return nil, err
	}
	s.rankSorted.Add(ans.SortedAccesses)
	s.rankRandom.Add(ans.RandomAccesses)
	s.observePlan(ans.Plan)
	return &QueryResponse{Answer: *ans}, nil
}
