package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// The core correctness property: a scatter-gather over any shard layout
// returns exactly the single-process (monolith) top-k.
func TestScatterGatherMatchesMonolith(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			shardIxs, mono := buildWorld(t, n)
			c, err := New(localShards(shardIxs), fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 7} {
				sql := rankedSQLK(k)
				res, err := c.TopK(context.Background(), sql)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				assertSameSeqs(t, res.Sequences, monolithTopK(t, mono, sql))
				if len(res.Partition.OK) != n || len(res.Partition.Degraded)+len(res.Partition.Failed) != 0 {
					t.Fatalf("k=%d: partition %+v, want all %d shards ok", k, res.Partition, n)
				}
				if res.Rounds < 1 {
					t.Fatalf("k=%d: rounds = %d", k, res.Rounds)
				}
				for sh, gen := range res.Generations {
					if gen != 1 {
						t.Errorf("shard %s generation = %d, want 1", sh, gen)
					}
				}
			}
		})
	}
}

// A shard that answered to completion satisfies the separation property,
// so its residual upper bound sits below the global Blo_K and the
// refinement loop must prune it instead of re-querying.
func TestHealthyShardsPrunedWithoutRefinement(t *testing.T) {
	shardIxs, _ := buildWorld(t, 2)
	c, err := New(localShards(shardIxs), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (healthy shards must not be re-queried)", res.Rounds)
	}
	if res.BloK == 0 {
		t.Fatal("BloK not computed")
	}
	if res.PrunedShards == 0 {
		t.Fatal("expected at least one truncated shard to be pruned by Blo_K")
	}
}

// A shard whose residual upper bound clears the global Blo_K is re-queried
// with a doubled k (capped at its candidate count) until it either
// separates or exhausts its candidates.
func TestRefineRequeriesTruncatedShards(t *testing.T) {
	mkSeq := func(v string, clip int, score float64) RankedSeq {
		return RankedSeq{Video: v, StartClip: clip, EndClip: clip, Score: score, Lower: score, Upper: score, Exact: true}
	}
	var mu sync.Mutex
	var ks []int
	deep := &stubBackend{name: "deep-r0", fn: func(_ context.Context, req Request) (*Response, error) {
		mu.Lock()
		ks = append(ks, req.K)
		mu.Unlock()
		all := []RankedSeq{
			mkSeq("va", 1, 10), mkSeq("va", 5, 9), mkSeq("va", 9, 8),
			mkSeq("va", 13, 7.4), mkSeq("va", 17, 7.3), mkSeq("va", 21, 7.2),
		}
		resp := &Response{Shard: "deep", Replica: "deep-r0", Generation: 1, Candidates: len(all)}
		if req.K >= len(all) {
			resp.Sequences = all
			return resp, nil
		}
		resp.Sequences = all[:req.K]
		resp.Truncated = true
		resp.ResidualUpper = 7.5 // loose bound above the omitted tail
		return resp, nil
	}}
	shallow := &stubBackend{name: "shallow-r0", fn: func(_ context.Context, req Request) (*Response, error) {
		return &Response{Shard: "shallow", Replica: "shallow-r0", Generation: 1, Candidates: 2,
			Sequences: []RankedSeq{mkSeq("vb", 1, 2), mkSeq("vb", 5, 1)}}, nil
	}}
	c, err := New([]ShardSpec{
		{Name: "deep", Replicas: []Backend{deep}},
		{Name: "shallow", Replicas: []Backend{shallow}},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQLK(4))
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: deep returns its top-4 (Blo_K = 7.4 < 7.5 residual? no:
	// top-4 lowers are 10,9,8,7.4 → Blo_K 7.4 < 7.5 → refine deep with
	// k=8 capped at 6 candidates). Round 2: deep separates.
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2; shard ks seen: %v", res.Rounds, ks)
	}
	mu.Lock()
	gotKs := append([]int(nil), ks...)
	mu.Unlock()
	if len(gotKs) != 2 || gotKs[0] != 4 || gotKs[1] != 6 {
		t.Fatalf("deep shard saw ks %v, want [4 6]", gotKs)
	}
	want := []string{"va[1-1]", "va[5-5]", "va[9-9]", "va[13-13]"}
	if got := keys(res.Sequences); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merged top-4 = %v, want %v", got, want)
	}
}

// A dead primary fails over to the secondary replica: the answer is still
// correct and the shard reports degraded, not failed.
func TestFailoverToSecondReplica(t *testing.T) {
	shardIxs, mono := buildWorld(t, 2)
	dead := &stubBackend{name: "s0-r0", fn: func(context.Context, Request) (*Response, error) {
		return nil, &replicaError{Replica: "s0-r0", Err: errors.New("connection refused")}
	}}
	specs := []ShardSpec{
		{Name: "s0", Replicas: []Backend{dead, NewLocalBackend("s0-r1", 1, shardIxs[0])}},
		{Name: "s1", Replicas: []Backend{NewLocalBackend("s1-r0", 1, shardIxs[1])}},
	}
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatalf("failover should succeed, got %v", err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono, rankedSQL))
	if len(res.Partition.Degraded) != 1 || res.Partition.Degraded[0] != "s0" {
		t.Fatalf("partition = %+v, want s0 degraded", res.Partition)
	}
	var s0 *ShardOutcome
	for i := range res.Shards {
		if res.Shards[i].Shard == "s0" {
			s0 = &res.Shards[i]
		}
	}
	if s0 == nil || s0.Outcome != "degraded" || s0.Replica != "s0-r1" || s0.Attempts < 2 {
		t.Fatalf("s0 outcome = %+v, want degraded via s0-r1 after >=2 attempts", s0)
	}
	if got := c.byName["s0"].failovers.Value(); got == 0 {
		t.Fatal("failover counter not incremented")
	}
}

// Exhausting a whole shard's replica set degrades gracefully: the merged
// answer covers the surviving shards and a typed *DegradedError names the
// lost shard.
func TestShardLossDegradesGracefully(t *testing.T) {
	shardIxs, mono := buildWorld(t, 2)
	deadReplica := func(name string) Backend {
		return &stubBackend{name: name, fn: func(context.Context, Request) (*Response, error) {
			return nil, &replicaError{Replica: name, Err: errors.New("connection refused")}
		}}
	}
	specs := []ShardSpec{
		{Name: "s0", Replicas: []Backend{NewLocalBackend("s0-r0", 1, shardIxs[0])}},
		{Name: "s1", Replicas: []Backend{deadReplica("s1-r0"), deadReplica("s1-r1")}},
	}
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQL)
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if len(deg.Failed) != 1 || deg.Failed[0] != "s1" {
		t.Fatalf("DegradedError.Failed = %v, want [s1]", deg.Failed)
	}
	if res == nil {
		t.Fatal("degraded answer must still carry the surviving shards' result")
	}
	if len(res.Partition.Failed) != 1 || res.Partition.Failed[0] != "s1" {
		t.Fatalf("partition = %+v, want s1 failed", res.Partition)
	}
	// The surviving shard's answer must equal the monolith restricted to
	// that shard's members — degraded, but never wrong.
	groups := PartitionMembers(testMembers, 2)
	want := monolithTopK(t, shardIxs[0], rankedSQL)
	assertSameSeqs(t, res.Sequences, want)
	for _, s := range res.Sequences {
		if ShardOf(s.Video, 2) != 0 {
			t.Fatalf("sequence %s not from surviving shard (groups %v)", seqKey(s), groups)
		}
	}
	_ = mono
}

// A hanging primary is hedged after HedgeAfter: the raced secondary
// answers, the hedge win is counted, and the shard reports degraded.
func TestHedgeRacesSlowReplica(t *testing.T) {
	shardIxs, mono := buildWorld(t, 1)
	hang := &stubBackend{name: "s0-r0", fn: func(ctx context.Context, _ Request) (*Response, error) {
		<-ctx.Done()
		return nil, &replicaError{Replica: "s0-r0", Err: ctx.Err()}
	}}
	cfg := fastConfig()
	cfg.HedgeAfter = 5 * time.Millisecond
	c, err := New([]ShardSpec{
		{Name: "s0", Replicas: []Backend{hang, NewLocalBackend("s0-r1", 1, shardIxs[0])}},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatalf("hedged query should succeed, got %v", err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono, rankedSQL))
	if len(res.Partition.Degraded) != 1 {
		t.Fatalf("partition = %+v, want s0 degraded via hedge", res.Partition)
	}
	sh := c.byName["s0"]
	if sh.hedges.Value() == 0 || sh.hedgeWins.Value() == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", sh.hedges.Value(), sh.hedgeWins.Value())
	}
}

// An invalid statement is fatal for the whole query — no failover, no
// degradation, a *BadRequestError.
func TestBadStatementsAreFatal(t *testing.T) {
	shardIxs, _ := buildWorld(t, 1)
	c, err := New(localShards(shardIxs), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var bad *BadRequestError
	if _, err := c.TopK(context.Background(), "SELECT nonsense"); !errors.As(err, &bad) {
		t.Fatalf("parse error should be BadRequestError, got %v", err)
	}
	online := `SELECT clipID FROM (PROCESS repo PRODUCE clipID, act USING ActionRecognizer) WHERE act='jumping'`
	if _, err := c.TopK(context.Background(), online); !errors.As(err, &bad) {
		t.Fatalf("online statement should be BadRequestError, got %v", err)
	}
}

// The kill → breaker-open → health-probe → recovery lifecycle, driven by a
// fake clock and a deterministic down-window fault plan.
func TestBreakerFailoverAndRecovery(t *testing.T) {
	shardIxs, mono := buildWorld(t, 1)
	// Primary: query calls 1-2 dead, serving again from call 3.
	primary := NewFaultBackend(NewLocalBackend("s0-r0", 1, shardIxs[0]),
		FaultPlan{DownFrom: 1, UpFrom: 3})
	secondary := NewLocalBackend("s0-r1", 1, shardIxs[0])
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	cfg := fastConfig()
	cfg.Breaker = BreakerConfig{Threshold: 1, Cooloff: 30 * time.Second, now: clk.Now}
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{primary, secondary}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := monolithTopK(t, mono, rankedSQL)
	run := func(t *testing.T) *TopKResult {
		t.Helper()
		res, err := c.TopK(context.Background(), rankedSQL)
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		assertSameSeqs(t, res.Sequences, want)
		return res
	}

	// Query 1: primary dead (call 1) → breaker trips → failover.
	res := run(t)
	if res.Shards[0].Outcome != "degraded" || res.Shards[0].Replica != "s0-r1" {
		t.Fatalf("q1 outcome = %+v, want degraded via s0-r1", res.Shards[0])
	}
	if c.shards[0].replicas[0].breaker.State() != BreakerOpen {
		t.Fatal("q1: primary breaker should be open")
	}

	// Query 2: breaker open → secondary directly, primary never called.
	calls := primary.Calls()
	res = run(t)
	if primary.Calls() != calls {
		t.Fatalf("q2: open breaker let %d call(s) through", primary.Calls()-calls)
	}
	if res.Shards[0].Outcome != "degraded" || res.Shards[0].Attempts != 1 {
		t.Fatalf("q2 outcome = %+v, want degraded in one attempt via secondary", res.Shards[0])
	}

	// Cool-off elapses: the half-open probe hits the still-dead primary
	// (call 2), re-opens, and the query falls over again.
	clk.Advance(31 * time.Second)
	res = run(t)
	if res.Shards[0].Outcome != "degraded" || res.Shards[0].Attempts < 2 {
		t.Fatalf("q3 outcome = %+v, want failover after failed probe", res.Shards[0])
	}

	// Cool-off again: the replica has restarted (call 3 serves), the
	// half-open probe succeeds, the breaker closes, and the shard is ok.
	clk.Advance(31 * time.Second)
	res = run(t)
	if res.Shards[0].Outcome != "ok" || res.Shards[0].Replica != "s0-r0" {
		t.Fatalf("q4 outcome = %+v, want ok via recovered primary", res.Shards[0])
	}
	if st := c.shards[0].replicas[0].breaker.State(); st != BreakerClosed {
		t.Fatalf("q4: primary breaker = %v, want closed", st)
	}
}

// Health probes feed the breakers: ProbeAll on a dead replica trips its
// breaker before any query pays for the discovery, and a later probe of
// the recovered replica closes it again.
func TestHealthProbesDriveBreakers(t *testing.T) {
	shardIxs, _ := buildWorld(t, 1)
	primary := NewLocalBackend("s0-r0", 1, shardIxs[0])
	cfg := fastConfig()
	cfg.Breaker = BreakerConfig{Threshold: 1, Cooloff: time.Hour}
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{primary,
		NewLocalBackend("s0-r1", 1, shardIxs[0])}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	primary.Close()
	c.ProbeAll(context.Background())
	if st := c.shards[0].replicas[0].breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", st)
	}
	st := c.Status()
	if st[0].Replicas[0].LastError == "" || st[0].Replicas[0].Breaker != "open" {
		t.Fatalf("status = %+v, want open breaker with last error", st[0].Replicas[0])
	}
	// Queries now skip the primary without spending an attempt on it.
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Attempts != 1 || res.Shards[0].Replica != "s0-r1" {
		t.Fatalf("outcome = %+v, want single-attempt answer via secondary", res.Shards[0])
	}
	// Restart: a passing probe closes the breaker without waiting out the
	// cool-off.
	primary.Reopen()
	c.ProbeAll(context.Background())
	if st := c.shards[0].replicas[0].breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker after passing probe = %v, want closed", st)
	}
}

// The fault-harness property test: under a deterministic mix of injected
// replica errors, every query either returns the exact monolith top-k or
// a typed degraded answer that is still exact for the surviving shards.
// Run with -race: the scatter, hedging and retry machinery is concurrent.
func TestFaultedClusterNeverWrong(t *testing.T) {
	shardIxs, mono := buildWorld(t, 2)
	mk := func(shardIx int, rep int, plan FaultPlan) Backend {
		name := fmt.Sprintf("s%d-r%d", shardIx, rep)
		return NewFaultBackend(NewLocalBackend(name, 1, shardIxs[shardIx]), plan)
	}
	specs := []ShardSpec{
		{Name: "s0", Replicas: []Backend{
			mk(0, 0, FaultPlan{Seed: 1, ErrorRate: 0.3}),
			mk(0, 1, FaultPlan{Seed: 2, ErrorRate: 0.3}),
		}},
		{Name: "s1", Replicas: []Backend{
			mk(1, 0, FaultPlan{Seed: 3, ErrorRate: 0.3, DelayRate: 0.2, Delay: 2 * time.Millisecond}),
			mk(1, 1, FaultPlan{Seed: 4, ErrorRate: 0.3}),
		}},
	}
	cfg := fastConfig()
	cfg.AttemptsPerReplica = 4
	cfg.HedgeAfter = 20 * time.Millisecond
	c, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := monolithTopK(t, mono, rankedSQL)
	okCount, degradedCount := 0, 0
	for i := 0; i < 40; i++ {
		res, err := c.TopK(context.Background(), rankedSQL)
		var deg *DegradedError
		switch {
		case err == nil:
			assertSameSeqs(t, res.Sequences, want)
			if res.Degraded() {
				degradedCount++
			} else {
				okCount++
			}
		case errors.As(err, &deg):
			// Whole-shard loss: with 0.3 error rate and 8 attempts this
			// is vanishingly rare, but if it happens the partial answer
			// must still be exact for the surviving shards.
			degradedCount++
			surviving := map[string]bool{}
			for _, s := range res.Partition.OK {
				surviving[s] = true
			}
			for _, s := range res.Partition.Degraded {
				surviving[s] = true
			}
			var expect []RankedSeq
			for _, s := range want {
				if surviving[fmt.Sprintf("s%d", ShardOf(s.Video, 2))] {
					expect = append(expect, s)
				}
			}
			for _, g := range res.Sequences {
				found := false
				for _, w := range expect {
					if seqKey(g) == seqKey(w) {
						found = true
					}
				}
				if !found {
					t.Fatalf("degraded answer contains %s not in surviving monolith set", seqKey(g))
				}
			}
		default:
			t.Fatalf("query %d: unexpected terminal error %v", i, err)
		}
	}
	if okCount+degradedCount != 40 {
		t.Fatalf("accounted %d+%d of 40 queries", okCount, degradedCount)
	}
	if degradedCount == 0 {
		t.Fatal("fault plan injected no faults — schedule is not exercising retries")
	}
	t.Logf("ok=%d degraded=%d retries(s0)=%d retries+failovers(s1)=%d",
		okCount, degradedCount,
		c.byName["s0"].failovers.Value()+c.byName["s0"].retries.Value(),
		c.byName["s1"].failovers.Value()+c.byName["s1"].retries.Value())
}

// Deterministic jitter: identical coordinators replay identical backoff
// schedules; different seeds diverge.
func TestBackoffDeterministicJitter(t *testing.T) {
	shardIxs, _ := buildWorld(t, 1)
	mk := func(seed uint64) *Coordinator {
		cfg := fastConfig()
		cfg.Seed = seed
		c, err := New(localShards(shardIxs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	req := Request{SQL: rankedSQL, QueryID: "deadbeefdeadbeef"}
	a, b, other := mk(7), mk(7), mk(8)
	for attempt := 1; attempt <= 4; attempt++ {
		if d1, d2 := a.backoff(req, "s0", attempt, 0), b.backoff(req, "s0", attempt, 0); d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, d1, d2)
		}
		if a.backoff(req, "s0", attempt, 0) == other.backoff(req, "s0", attempt, 0) {
			t.Fatalf("attempt %d: different seeds gave identical jitter", attempt)
		}
		base, jittered := fastConfig().BaseBackoff, a.backoff(req, "s0", attempt, 0)
		max := fastConfig().MaxBackoff
		if jittered < base/2 || jittered > max+max/2 {
			t.Fatalf("attempt %d: backoff %v outside [base/2, 1.5*max]", attempt, jittered)
		}
	}
}

// A hedge quantile outside (0, 1) — NaN included, which compares false with
// both bounds — falls back to the default instead of reaching
// Histogram.Quantile, where NaN would make the hedge delay the largest
// latency seen.
func TestHedgeQuantileDefaults(t *testing.T) {
	for _, q := range []float64{0, -0.5, 1, 2, math.NaN()} {
		if got := (Config{HedgeQuantile: q}).withDefaults().HedgeQuantile; got != 0.95 {
			t.Errorf("HedgeQuantile %v defaults to %v, want 0.95", q, got)
		}
	}
	if got := (Config{HedgeQuantile: 0.5}).withDefaults().HedgeQuantile; got != 0.5 {
		t.Errorf("HedgeQuantile 0.5 became %v", got)
	}
}
