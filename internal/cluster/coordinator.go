package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"svqact/internal/detect"
	"svqact/internal/httpd"
	"svqact/internal/obs"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

// ShardSpec declares one shard: a name plus its ordered replica set (the
// first replica is the primary; the rest are failover targets).
type ShardSpec struct {
	Name     string
	Replicas []Backend
}

// Config tunes the coordinator's robustness machinery.
type Config struct {
	// QueryTimeout bounds one whole scatter-gather (all rounds); <= 0
	// means 30s. ShardTimeout bounds one shard's attempt set within a
	// round; <= 0 means QueryTimeout.
	QueryTimeout time.Duration
	ShardTimeout time.Duration

	// MaxConcurrent bounds concurrently executing scatter-gathers (<= 0
	// means 16); QueueDepth bounds the admission queue behind it (< 0
	// disables queueing entirely, 0 means 2*MaxConcurrent) and QueueWait
	// bounds how long one request may queue (<= 0 means 2s). Requests
	// beyond queue capacity — or whose deadline cannot survive the
	// queue — are shed with a typed *OverloadError (HTTP 429 +
	// Retry-After), before any shard is touched.
	MaxConcurrent int
	QueueDepth    int
	QueueWait     time.Duration

	// AttemptsPerReplica bounds retries: a shard's attempt budget per
	// round is AttemptsPerReplica * len(replicas); <= 0 means 2.
	AttemptsPerReplica int

	// BaseBackoff/MaxBackoff shape the exponential backoff between
	// attempts (defaults 20ms / 1s). Jitter is deterministic: a keyed
	// hash of (Seed, query, shard, attempt) scales each delay by
	// [0.5, 1.5), so failover schedules replay identically in tests.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Seed        uint64

	// HedgeAfter enables hedged requests: when a shard's attempt is
	// still unanswered after this delay (or the shard's observed
	// HedgeQuantile latency, whichever is larger once enough samples
	// exist), a second replica is raced and the first answer wins.
	// 0 disables hedging. HedgeQuantile defaults to 0.95.
	HedgeAfter    time.Duration
	HedgeQuantile float64

	// Breaker configures every replica's circuit breaker.
	Breaker BreakerConfig

	// Logger defaults to a discard logger; Registry to a private one.
	Logger   *slog.Logger
	Registry *obs.Registry

	// Traces is the retained trace store behind /debug/traces; nil gets a
	// default-sized one.
	Traces *obs.TraceStore
}

// maxRefineRounds bounds the distributed-threshold refinement loop
// (re-querying truncated shards with a doubled k).
const maxRefineRounds = 4

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = c.QueryTimeout
	}
	if c.AttemptsPerReplica <= 0 {
		c.AttemptsPerReplica = 2
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 20 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if !(c.HedgeQuantile > 0 && c.HedgeQuantile < 1) { // NaN too
		c.HedgeQuantile = 0.95
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Traces == nil {
		c.Traces = obs.NewTraceStore(obs.TraceStoreConfig{})
	}
	return c
}

// replica pairs a backend with its breaker and last health-probe state.
type replica struct {
	backend Backend
	breaker *Breaker

	mu        sync.Mutex
	lastProbe time.Time
	lastErr   string
}

// shard is one shard's runtime state.
type shard struct {
	name     string
	replicas []*replica
	// latency records successful attempt latencies; its upper quantile
	// drives the adaptive hedge delay.
	latency *obs.Histogram

	requests  *obs.Counter
	errs      *obs.Counter
	retries   *obs.Counter
	failovers *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter

	// pressureUntil (unix nanos) is the shard's backpressure signal: a
	// replica answering 429/503 raises it by the Retry-After hint, and
	// until it passes the admission gate sheds new arrivals whenever no
	// slot is free instead of queueing work the shard asked not to get.
	pressureUntil atomic.Int64
	backpressure  *obs.Counter
}

// raisePressure extends the shard's backpressure window to now+d if that
// is later than the current window.
func (sh *shard) raisePressure(d time.Duration) {
	sh.backpressure.Inc()
	until := time.Now().Add(d).UnixNano()
	for {
		cur := sh.pressureUntil.Load()
		if cur >= until || sh.pressureUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Coordinator fans ranked queries out over shards and merges the top-k
// answers with RVAQ's bounds as the distributed threshold. See the package
// comment for the robustness contract.
type Coordinator struct {
	cfg    Config
	shards []*shard
	byName map[string]*shard
	log    *slog.Logger
	traces *obs.TraceStore

	admission *httpd.Gate
	panics    *obs.Counter

	// rollout state: at most one rolling generation swap runs at a time.
	rolloutMu     sync.Mutex
	rolloutActive bool
	rollout       RolloutStatus

	mQueries      map[string]*obs.Counter // outcome -> counter
	mPruned       *obs.Counter
	mRefines      *obs.Counter
	mProbes       map[string]*obs.Counter // outcome -> counter
	mBreakerOpen  *obs.Counter
	mMixedGen     *obs.Counter
	mRollouts     map[string]*obs.Counter // outcome -> counter
	mRolloutGauge *obs.Gauge
	scatterHist   *obs.Histogram
}

var latencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// New builds a coordinator over the given shards.
func New(shards []ShardSpec, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		byName:   map[string]*shard{},
		log:      cfg.Logger,
		traces:   cfg.Traces,
		mQueries: map[string]*obs.Counter{},
		mProbes:  map[string]*obs.Counter{},
	}
	reg := cfg.Registry
	c.traces.Register(reg)
	for _, o := range []string{"ok", "degraded", "failed"} {
		c.mQueries[o] = reg.Counter("svqact_cluster_queries_total",
			"Scatter-gather queries by aggregate outcome.", obs.L("outcome", o))
	}
	for _, o := range []string{"ok", "error"} {
		c.mProbes[o] = reg.Counter("svqact_cluster_health_probes_total",
			"Replica health probes by outcome.", obs.L("outcome", o))
	}
	c.mPruned = reg.Counter("svqact_cluster_shards_pruned_total",
		"Truncated shards not re-queried because their residual upper bound fell below the global Blo_K.")
	c.mRefines = reg.Counter("svqact_cluster_refine_rounds_total",
		"Distributed-threshold refinement rounds (re-queries of truncated shards with a doubled k).")
	c.mBreakerOpen = reg.Counter("svqact_cluster_breaker_transitions_total",
		"Circuit breaker transitions into the open state.")
	c.mMixedGen = reg.Counter("svqact_cluster_mixed_generation_answers_total",
		"Scatter-gathers that merged answers from different repository generations (marked degraded).")
	c.mRollouts = map[string]*obs.Counter{}
	for _, o := range []string{"completed", "failed"} {
		c.mRollouts[o] = reg.Counter("svqact_cluster_rollouts_total",
			"Rolling generation swaps by outcome.", obs.L("outcome", o))
	}
	c.mRolloutGauge = reg.Gauge("svqact_cluster_rollout_running",
		"1 while a rolling generation swap is in progress.")
	c.scatterHist = reg.Histogram("svqact_cluster_scatter_seconds",
		"Whole scatter-gather latency (all rounds).", latencyBounds)
	c.admission = httpd.NewGate(reg, "svqact_cluster_admission", cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueWait, c.pressure)
	c.panics = httpd.Panics(reg)
	httpd.EncodeFailures(reg)
	replicas := 0
	for _, spec := range shards {
		if spec.Name == "" || len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard needs a name and at least one replica")
		}
		if c.byName[spec.Name] != nil {
			return nil, fmt.Errorf("cluster: duplicate shard %q", spec.Name)
		}
		sh := &shard{
			name:    spec.Name,
			latency: obs.NewHistogram(latencyBounds),
			requests: reg.Counter("svqact_cluster_shard_requests_total",
				"Per-shard replica attempts.", obs.L("shard", spec.Name), obs.L("outcome", "ok")),
			errs: reg.Counter("svqact_cluster_shard_requests_total",
				"Per-shard replica attempts.", obs.L("shard", spec.Name), obs.L("outcome", "error")),
			retries: reg.Counter("svqact_cluster_retries_total",
				"Same-replica retries.", obs.L("shard", spec.Name)),
			failovers: reg.Counter("svqact_cluster_failovers_total",
				"Attempts moved to another replica.", obs.L("shard", spec.Name)),
			hedges: reg.Counter("svqact_cluster_hedges_total",
				"Hedged (raced) requests launched.", obs.L("shard", spec.Name)),
			hedgeWins: reg.Counter("svqact_cluster_hedge_wins_total",
				"Hedged requests that answered first.", obs.L("shard", spec.Name)),
			backpressure: reg.Counter("svqact_cluster_admission_backpressure_total",
				"Shard 429/503 answers folded into the admission gate's pressure signal.",
				obs.L("shard", spec.Name)),
		}
		reg.AttachHistogram("svqact_cluster_shard_latency_seconds",
			"Successful shard attempt latency.", sh.latency, obs.L("shard", spec.Name))
		for _, b := range spec.Replicas {
			bc := cfg.Breaker
			bc.onTransition = func(from, to BreakerState) {
				if to == BreakerOpen {
					c.mBreakerOpen.Inc()
				}
			}
			sh.replicas = append(sh.replicas, &replica{backend: b, breaker: NewBreaker(bc)})
		}
		replicas += len(sh.replicas)
		c.shards = append(c.shards, sh)
		c.byName[spec.Name] = sh
	}
	reg.Gauge("svqact_cluster_shards", "Configured shards.").Set(int64(len(c.shards)))
	reg.Gauge("svqact_cluster_replicas", "Configured replicas across all shards.").Set(int64(replicas))
	return c, nil
}

// pressure reports the longest remaining shard backpressure window, 0
// when every shard is calm. The admission gate consults it on every
// arrival that finds no free slot.
func (c *Coordinator) pressure() time.Duration {
	var until int64
	for _, sh := range c.shards {
		if u := sh.pressureUntil.Load(); u > until {
			until = u
		}
	}
	if until == 0 {
		return 0
	}
	if d := time.Until(time.Unix(0, until)); d > 0 {
		return d
	}
	return 0
}

// ShardOutcome is one shard's outcome within one coordinator query.
type ShardOutcome struct {
	Shard string `json:"shard"`
	// Outcome: "ok" (primary answered first try), "degraded" (answered
	// via retry, failover or hedging — or lost a refinement round after
	// answering), "failed" (replica set exhausted, no answer).
	Outcome string `json:"outcome"`
	// Replica that produced the accepted answer, when any.
	Replica  string `json:"replica,omitempty"`
	Attempts int    `json:"attempts"`
	Hedges   int    `json:"hedges,omitempty"`
	Error    string `json:"error,omitempty"`
}

// TopKResult is the merged answer of one scatter-gather query.
type TopKResult struct {
	K          int         `json:"k"`
	Sequences  []RankedSeq `json:"sequences"`
	Candidates int         `json:"candidates"`
	// BloK is the final global k-th lower bound the merge pruned with.
	BloK float64 `json:"blo_k"`
	// Rounds counts scatter rounds (1 + refinements); PrunedShards the
	// truncated shards never re-queried because their residual upper
	// bound fell below BloK.
	Rounds       int `json:"rounds"`
	PrunedShards int `json:"pruned_shards"`

	Shards    []ShardOutcome `json:"shard_details"`
	Partition Partition      `json:"shards"`
	// Generations maps answered shards to the repository generation that
	// served them. MixedGenerations is the generation-consistency guard:
	// true when the merge combined answers from different repository
	// generations (across shards, or across refinement rounds within one
	// shard during an in-flight rollout) — the answer is internally
	// consistent per shard but may interleave old- and new-generation
	// data, so it is marked degraded rather than silently merged.
	Generations      map[string]int `json:"generations,omitempty"`
	MixedGenerations bool           `json:"mixed_generations,omitempty"`
}

// Degraded reports whether any shard fell short of "ok" or the answer
// mixed repository generations.
func (r *TopKResult) Degraded() bool {
	return len(r.Partition.Degraded) > 0 || len(r.Partition.Failed) > 0 || r.MixedGenerations
}

// TopK scatter-gathers one ranked statement. On whole-shard loss it
// returns the surviving shards' merged top-k together with a
// *DegradedError — callers distinguish "complete answer" (nil error) from
// "correct but partial coverage" (DegradedError) from hard failure.
func (c *Coordinator) TopK(ctx context.Context, sql string) (*TopKResult, error) {
	st, err := sqlq.Parse(sql)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	plan, err := st.Plan()
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	if plan.Online {
		return nil, &BadRequestError{Msg: "cluster: only ranked (ORDER BY rank() LIMIT k) statements shard; run online statements against a single shard"}
	}
	k := plan.K

	// Admission: bounded concurrency with a short, deadline-aware queue.
	// Shed requests never touch a shard — the typed *OverloadError maps to
	// 429 + Retry-After at the HTTP layer.
	if err := c.admission.Acquire(ctx); err != nil {
		return nil, err
	}
	defer c.admission.Release()

	ctx, cancel := context.WithTimeout(ctx, c.cfg.QueryTimeout)
	defer cancel()
	start := time.Now()
	span := obs.StartSpan(ctx, "cluster.topk")
	defer span.End()
	// Every per-shard span (and, transitively, every attempt span and
	// grafted shard subtree) parents under the scatter span.
	ctx = obs.WithSpan(ctx, span)
	qid := obs.TraceFrom(ctx).ID()

	res := &TopKResult{K: k, Generations: map[string]int{}}
	// genTorn trips when one shard's generation changes between rounds: a
	// refinement round answered by a replica already swapped to (or still
	// on) a different generation than the round merged earlier.
	genTorn := false
	responses := map[string]*Response{}
	outcomes := map[string]*ShardOutcome{}
	kShard := map[string]int{}
	need := append([]*shard(nil), c.shards...)
	for _, sh := range need {
		kShard[sh.name] = k
	}

	var firstFailure error
	for round := 1; round <= maxRefineRounds && len(need) > 0; round++ {
		res.Rounds = round
		if round > 1 {
			c.mRefines.Inc()
		}
		type shardAnswer struct {
			sh    *shard
			resp  *Response
			out   ShardOutcome
			fatal error
		}
		ch := make(chan shardAnswer, len(need))
		for _, sh := range need {
			go func(sh *shard) {
				req := Request{SQL: sql, K: kShard[sh.name], QueryID: qid}
				resp, out, fatal := c.queryShard(ctx, sh, req)
				ch <- shardAnswer{sh, resp, out, fatal}
			}(sh)
		}
		var fatal error
		for range need {
			a := <-ch
			foldOutcome(outcomes, a.sh.name, a.out, responses[a.sh.name] != nil || a.resp != nil)
			if a.fatal != nil && fatal == nil {
				fatal = a.fatal
			}
			if a.resp != nil {
				responses[a.sh.name] = a.resp
				if prev, seen := res.Generations[a.sh.name]; seen &&
					prev > 0 && a.resp.Generation > 0 && prev != a.resp.Generation {
					genTorn = true
				}
				res.Generations[a.sh.name] = a.resp.Generation
			} else if firstFailure == nil && a.out.Error != "" {
				firstFailure = fmt.Errorf("shard %s: %s", a.sh.name, a.out.Error)
			}
		}
		if fatal != nil {
			return nil, fatal
		}

		res.Sequences, res.BloK = mergeTopK(k, responses)

		// Distributed threshold: re-query only the truncated shards whose
		// residual upper bound still clears the global Blo_K — with a
		// doubled k, capped at the shard's candidate count.
		need = need[:0]
		for name, resp := range responses {
			if !resp.Truncated || resp.ResidualUpper <= res.BloK {
				continue
			}
			if resp.Candidates > 0 && kShard[name] >= resp.Candidates {
				continue
			}
			next := kShard[name] * 2
			if resp.Candidates > 0 && next > resp.Candidates {
				next = resp.Candidates
			}
			kShard[name] = next
			need = append(need, c.byName[name])
		}
		sort.Slice(need, func(i, j int) bool { return need[i].name < need[j].name })
	}

	res.Candidates = 0
	for _, resp := range responses {
		res.Candidates += resp.Candidates
	}
	for _, resp := range responses {
		if resp.Truncated && resp.ResidualUpper <= res.BloK {
			res.PrunedShards++
			c.mPruned.Inc()
		}
	}
	if math.IsInf(res.BloK, 0) || math.IsNaN(res.BloK) {
		// Fewer than k candidates cluster-wide: no threshold ever formed
		// (-Inf internally). JSON cannot carry non-finite floats, so the
		// answer reports 0 — Candidates < K already tells the client why.
		res.BloK = 0
	}

	// Generation-consistency guard: a scatter that merged answers served
	// by different repository generations (mid-rollout, or after a torn
	// partial swap) is correct per shard but may interleave old- and
	// new-generation data globally — mark it degraded, never merge
	// silently. Generation 0 means "unknown" (a backend that does not
	// report one) and is excluded from the comparison.
	res.MixedGenerations = genTorn
	seenGen := 0
	for _, g := range res.Generations {
		if g <= 0 {
			continue
		}
		if seenGen == 0 {
			seenGen = g
		} else if g != seenGen {
			res.MixedGenerations = true
		}
	}
	if res.MixedGenerations {
		c.mMixedGen.Inc()
	}

	for _, sh := range c.shards {
		o := outcomes[sh.name]
		if o == nil {
			o = &ShardOutcome{Shard: sh.name, Outcome: "failed", Error: "not attempted"}
		}
		res.Shards = append(res.Shards, *o)
		switch o.Outcome {
		case "ok":
			res.Partition.OK = append(res.Partition.OK, sh.name)
		case "degraded":
			res.Partition.Degraded = append(res.Partition.Degraded, sh.name)
		default:
			res.Partition.Failed = append(res.Partition.Failed, sh.name)
		}
	}

	elapsed := time.Since(start)
	c.scatterHist.Observe(elapsed.Seconds())
	span.SetAttr("k", k)
	span.SetAttr("shards", len(c.shards))
	span.SetAttr("rounds", res.Rounds)
	span.SetAttr("blo_k", res.BloK)
	span.SetAttr("pruned_shards", res.PrunedShards)
	span.SetAttr("ok", len(res.Partition.OK))
	span.SetAttr("degraded", len(res.Partition.Degraded))
	span.SetAttr("failed", len(res.Partition.Failed))
	if res.MixedGenerations {
		span.SetAttr("mixed_generations", true)
	}

	switch {
	case len(res.Partition.Failed) > 0:
		if len(res.Partition.Failed) == len(c.shards) {
			c.mQueries["failed"].Inc()
		} else {
			c.mQueries["degraded"].Inc()
		}
		if firstFailure == nil {
			firstFailure = errors.New("shard replica set exhausted")
		}
		c.log.Warn("degraded scatter-gather answer",
			"failed", res.Partition.Failed, "degraded", res.Partition.Degraded,
			"error", firstFailure.Error())
		return res, &DegradedError{
			Failed:   append([]string(nil), res.Partition.Failed...),
			Degraded: append([]string(nil), res.Partition.Degraded...),
			Err:      firstFailure,
		}
	case len(res.Partition.Degraded) > 0 || res.MixedGenerations:
		c.mQueries["degraded"].Inc()
	default:
		c.mQueries["ok"].Inc()
	}
	return res, nil
}

// foldOutcome merges a round's shard outcome into the accumulated one,
// keeping the worst (failed > degraded > ok) — except that a shard with an
// earlier answer never regresses past degraded (a lost refinement round
// costs depth, not the shard's data).
func foldOutcome(outcomes map[string]*ShardOutcome, name string, cur ShardOutcome, hasData bool) {
	sev := func(o string) int {
		switch o {
		case "ok":
			return 0
		case "degraded":
			return 1
		default:
			return 2
		}
	}
	prev := outcomes[name]
	if prev == nil {
		o := cur
		if o.Outcome == "failed" && hasData {
			o.Outcome = "degraded"
		}
		outcomes[name] = &o
		return
	}
	prev.Attempts += cur.Attempts
	prev.Hedges += cur.Hedges
	if cur.Replica != "" {
		prev.Replica = cur.Replica
	}
	if cur.Error != "" {
		prev.Error = cur.Error
	}
	if sev(cur.Outcome) > sev(prev.Outcome) {
		prev.Outcome = cur.Outcome
	}
	if prev.Outcome == "failed" && hasData {
		prev.Outcome = "degraded"
	}
}

// mergeTopK merges the shards' ranked lists into the global top-k and
// returns it with the global k-th lower bound (Blo_K) the refinement loop
// prunes against. Ties break on (video, start clip) so merges are
// deterministic across shard arrival orders.
func mergeTopK(k int, responses map[string]*Response) ([]RankedSeq, float64) {
	var all []RankedSeq
	for name, r := range responses {
		for _, s := range r.Sequences {
			s.Shard = name
			all = append(all, s)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Video != all[j].Video {
			return all[i].Video < all[j].Video
		}
		return all[i].StartClip < all[j].StartClip
	})
	bs := make([]rank.Bounds, len(all))
	for i, s := range all {
		bs[i] = s.Bounds()
	}
	bloK := rank.TopKLowerBound(bs, k)
	if len(all) > k {
		all = all[:k]
	}
	return all, bloK
}

// attemptAnswer is one replica attempt's result. span is the attempt's
// trace span; the winning attempt gets the shard's reported trace grafted
// under it.
type attemptAnswer struct {
	resp    *Response
	err     error
	rep     *replica
	hedged  bool
	elapsed time.Duration
	span    *obs.Span
}

// queryShard runs one shard's attempt set for one round: replica rotation
// with breaker gating, exponential backoff with deterministic jitter
// between failures, and an optional hedged second request after the
// shard's adaptive latency percentile. A *BadRequestError from a replica
// is fatal (third return): the statement itself is bad and the whole query
// must stop rather than fail over.
func (c *Coordinator) queryShard(ctx context.Context, sh *shard, req Request) (*Response, ShardOutcome, error) {
	out := ShardOutcome{Shard: sh.name, Outcome: "failed"}
	sctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	span := obs.StartSpan(ctx, "cluster.shard:"+sh.name)
	defer func() {
		span.SetAttr("outcome", out.Outcome)
		span.SetAttr("attempts", out.Attempts)
		span.SetAttr("hedges", out.Hedges)
		if out.Replica != "" {
			span.SetAttr("replica", out.Replica)
		}
		span.End()
	}()

	budget := c.cfg.AttemptsPerReplica * len(sh.replicas)
	resCh := make(chan attemptAnswer, budget)
	var (
		attempts int
		inflight int
		hedges   int
		next     int
		lastRep  *replica
		lastErr  error
	)
	launch := func(hedged bool) bool {
		if attempts >= budget {
			return false
		}
		// Rotate to the next replica whose breaker admits; when every
		// breaker refuses, force the next replica anyway — an all-open
		// shard should still probe rather than instafail the query.
		var rep *replica
		for i := 0; i < len(sh.replicas); i++ {
			r := sh.replicas[(next+i)%len(sh.replicas)]
			if r.breaker.Allow() {
				rep = r
				next = (next + i + 1) % len(sh.replicas)
				break
			}
		}
		if rep == nil {
			// Prefer a replica that is merely tripped open over one held
			// by a rollout drain — a draining replica is mid-reload and
			// the forced probe would only race the swap.
			for i := 0; i < len(sh.replicas); i++ {
				if r := sh.replicas[(next+i)%len(sh.replicas)]; !r.breaker.Held() {
					rep = r
					next = (next + i + 1) % len(sh.replicas)
					break
				}
			}
		}
		if rep == nil {
			rep = sh.replicas[next%len(sh.replicas)]
			next++
		}
		attempts++
		inflight++
		if hedged {
			hedges++
			sh.hedges.Inc()
		} else if attempts > 1 {
			if rep == lastRep {
				sh.retries.Inc()
			} else {
				sh.failovers.Inc()
			}
		}
		lastRep = rep
		// One child span per attempt: a hedge winner and a failed first
		// attempt stay distinguishable in the retained trace.
		aspan := span.StartChild("cluster.attempt").
			SetAttr("replica", rep.backend.Name()).
			SetAttr("attempt", attempts).
			SetAttr("hedged", hedged)
		areq := req
		areq.ParentSpan = aspan.ID()
		go func(rep *replica, hedged bool, aspan *obs.Span, areq Request) {
			t0 := time.Now()
			resp, err := rep.backend.Query(sctx, areq)
			if err != nil {
				aspan.SetAttr("outcome", "error").SetAttr("error", err.Error())
			} else {
				aspan.SetAttr("outcome", "ok")
			}
			aspan.End()
			resCh <- attemptAnswer{resp: resp, err: err, rep: rep, hedged: hedged, elapsed: time.Since(t0), span: aspan}
		}(rep, hedged, aspan, areq)
		return true
	}

	launch(false)
	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(sh); d > 0 && budget > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var backoffC <-chan time.Time
	fail := func(err error) (*Response, ShardOutcome, error) {
		out.Attempts = attempts
		out.Hedges = hedges
		if err != nil {
			out.Error = err.Error()
		}
		return nil, out, nil
	}
	for {
		select {
		case a := <-resCh:
			inflight--
			if a.err == nil {
				a.rep.breaker.Success()
				sh.latency.Observe(a.elapsed.Seconds())
				sh.requests.Inc()
				if a.hedged {
					sh.hedgeWins.Inc()
				}
				out.Outcome = "ok"
				// Anything short of the primary answering first try is
				// degraded: retries, failovers, hedges, and answers from a
				// non-primary replica (the primary is down or broken open).
				if attempts > 1 || hedges > 0 || a.rep != sh.replicas[0] {
					out.Outcome = "degraded"
				}
				// Splice the shard's own span tree (re-anchored to the
				// winning attempt) into the coordinator trace.
				a.span.Graft(a.resp.Trace)
				out.Replica = a.rep.backend.Name()
				out.Attempts = attempts
				out.Hedges = hedges
				return a.resp, out, nil
			}
			var bad *BadRequestError
			if errors.As(a.err, &bad) {
				out.Error = a.err.Error()
				out.Attempts = attempts
				return nil, out, a.err
			}
			a.rep.breaker.Failure()
			sh.errs.Inc()
			lastErr = a.err
			// A replica answering 429/503 is telling the cluster to slow
			// down: raise the shard's backpressure signal (admission sheds
			// on it) and honor its Retry-After hint in the retry backoff.
			var hint time.Duration
			var re *replicaError
			if errors.As(a.err, &re) && (re.Status == 429 || re.Status == 503) {
				hint = re.RetryAfter
				p := hint
				if p <= 0 {
					p = c.cfg.MaxBackoff
				}
				sh.raisePressure(p)
			}
			if attempts >= budget && inflight == 0 {
				return fail(lastErr)
			}
			if attempts < budget && backoffC == nil {
				backoffC = time.After(c.backoff(req, sh.name, attempts, hint))
			}
		case <-backoffC:
			backoffC = nil
			if !launch(false) && inflight == 0 {
				return fail(lastErr)
			}
		case <-hedgeC:
			hedgeC = nil
			launch(true)
		case <-sctx.Done():
			if lastErr == nil {
				lastErr = sctx.Err()
			}
			return fail(lastErr)
		}
	}
}

// hedgeDelay returns the hedge trigger for the shard: the configured floor,
// raised to the shard's observed HedgeQuantile latency once at least 16
// successful attempts have been recorded. 0 disables hedging.
func (c *Coordinator) hedgeDelay(sh *shard) time.Duration {
	if c.cfg.HedgeAfter <= 0 {
		return 0
	}
	d := c.cfg.HedgeAfter
	if sh.latency.Count() >= 16 {
		if q := sh.latency.Quantile(c.cfg.HedgeQuantile); q > 0 {
			if qd := time.Duration(q * float64(time.Second)); qd > d {
				d = qd
			}
		}
	}
	return d
}

// backoff returns the delay before attempt+1, exponential in the attempt
// number with deterministic jitter keyed on (seed, query, shard, attempt).
// hint is the replica's Retry-After when the failed attempt carried one
// (429/503): the jittered exponential delay is raised to honor it, with
// the hint clamped to MaxBackoff so a hostile or confused replica cannot
// park the coordinator indefinitely.
func (c *Coordinator) backoff(req Request, shardName string, attempt int, hint time.Duration) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < attempt && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	h := detect.Key64(c.cfg.Seed,
		detect.KeyString(req.QueryID), detect.KeyString(req.SQL),
		detect.KeyString(shardName), uint64(attempt))
	factor := 0.5 + detect.Unit01(h)
	out := time.Duration(float64(d) * factor)
	if hint > c.cfg.MaxBackoff {
		hint = c.cfg.MaxBackoff
	}
	if hint > out {
		out = hint
	}
	return out
}

// ReplicaStatus is one replica's health snapshot.
type ReplicaStatus struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
	// LastProbe is the RFC3339 time of the last health probe ("" before
	// the first); LastError its failure message ("" when healthy).
	LastProbe string `json:"last_probe,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// ShardStatus is one shard's health snapshot.
type ShardStatus struct {
	Name     string          `json:"name"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status snapshots every shard's replica health for /shards.
func (c *Coordinator) Status() []ShardStatus {
	var out []ShardStatus
	for _, sh := range c.shards {
		ss := ShardStatus{Name: sh.name}
		for _, r := range sh.replicas {
			breaker := r.breaker.State().String()
			if r.breaker.Held() {
				breaker = "draining"
			}
			r.mu.Lock()
			rs := ReplicaStatus{
				Name:      r.backend.Name(),
				Breaker:   breaker,
				LastError: r.lastErr,
			}
			if !r.lastProbe.IsZero() {
				rs.LastProbe = r.lastProbe.UTC().Format(time.RFC3339Nano)
			}
			r.mu.Unlock()
			ss.Replicas = append(ss.Replicas, rs)
		}
		out = append(out, ss)
	}
	return out
}

// Admission snapshots the admission gate for the health endpoint.
func (c *Coordinator) Admission() httpd.AdmissionHealth {
	return c.admission.Health()
}

// ProbeAll health-checks every replica once, feeding results into the
// breakers (a passing probe closes an open breaker, so a restarted replica
// rejoins without waiting for a live query to half-open it; a failing
// probe trips persistent deadness before queries pay for it).
func (c *Coordinator) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
				defer cancel()
				err := r.backend.Healthy(pctx)
				r.mu.Lock()
				r.lastProbe = time.Now()
				if err != nil {
					r.lastErr = err.Error()
				} else {
					r.lastErr = ""
				}
				r.mu.Unlock()
				if err != nil {
					c.mProbes["error"].Inc()
					r.breaker.Failure()
				} else {
					c.mProbes["ok"].Inc()
					r.breaker.Success()
				}
			}(r)
		}
	}
	wg.Wait()
}

// StartHealthChecks probes all replicas every interval until the returned
// stop function is called (or ctx ends). Tick phases are jittered
// deterministically per coordinator seed so fleets of coordinators do not
// probe in lockstep.
func (c *Coordinator) StartHealthChecks(ctx context.Context, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := 0
		for {
			tick++
			h := detect.Key64(c.cfg.Seed, 0x6865616c7468, uint64(tick))
			jittered := time.Duration(float64(interval) * (0.75 + 0.5*detect.Unit01(h)))
			select {
			case <-ctx.Done():
				return
			case <-time.After(jittered):
			}
			c.ProbeAll(ctx)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
