package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"svqact/internal/rank"
)

// twoGenWorld builds n shards with replicasPer LocalBackend replicas each,
// all serving generation 1, with generation 2 staged on every replica. The
// monoliths of both generations come along as ground truth.
func twoGenWorld(t *testing.T, n, replicasPer int) (specs []ShardSpec, locals [][]*LocalBackend, mono1, mono2 *rank.Index) {
	t.Helper()
	gen1, mono1 := buildWorld(t, n)
	gen2, mono2 := buildWorldSeeded(t, n, 200)
	for i := range gen1 {
		spec := ShardSpec{Name: shardName(i)}
		var reps []*LocalBackend
		for r := 0; r < replicasPer; r++ {
			b := NewLocalBackend(replicaName(i, r), 1, gen1[i])
			b.StageGeneration(2, gen2[i])
			reps = append(reps, b)
			spec.Replicas = append(spec.Replicas, b)
		}
		specs = append(specs, spec)
		locals = append(locals, reps)
	}
	return specs, locals, mono1, mono2
}

func shardName(i int) string { return "s" + string(rune('0'+i)) }

func replicaName(i, r int) string { return shardName(i) + "-r" + string(rune('0'+r)) }

func assertNoHeldBreakers(t *testing.T, c *Coordinator) {
	t.Helper()
	for _, sh := range c.shards {
		for _, rep := range sh.replicas {
			if rep.breaker.Held() {
				t.Fatalf("replica %s breaker still held after rollout", rep.backend.Name())
			}
		}
	}
}

func TestRolloutEndToEndSwap(t *testing.T) {
	specs, _, mono1, mono2 := twoGenWorld(t, 2, 2)
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Before the rollout the cluster answers from generation 1.
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono1, rankedSQL))
	if res.MixedGenerations {
		t.Fatal("uniform generation 1 flagged as mixed")
	}

	if err := c.RunRollout(context.Background(), RolloutConfig{CanarySQL: rankedSQL}); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	st := c.RolloutStatus()
	if st.State != "done" {
		t.Fatalf("rollout state = %q, want done (%+v)", st.State, st)
	}
	for _, sh := range st.Shards {
		if sh.State != "done" {
			t.Fatalf("shard %s state = %q, want done", sh.Shard, sh.State)
		}
		for _, r := range sh.Replicas {
			if r.State != "done" || r.FromGeneration != 1 || r.ToGeneration != 2 {
				t.Fatalf("replica %s = %+v, want done gen 1 -> 2", r.Replica, r)
			}
		}
	}
	assertNoHeldBreakers(t, c)
	if got := c.mRollouts["completed"].Value(); got != 1 {
		t.Fatalf("rollouts_total{completed} = %d, want 1", got)
	}

	// After the rollout every shard serves generation 2 and answers match
	// the generation-2 monolith.
	res, err = c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono2, rankedSQL))
	if res.MixedGenerations || res.Degraded() {
		t.Fatalf("post-rollout answer degraded: mixed %v, partition %+v", res.MixedGenerations, res.Partition)
	}
	for shardN, g := range res.Generations {
		if g != 2 {
			t.Fatalf("shard %s still on generation %d", shardN, g)
		}
	}
}

func TestRolloutHaltsOnReloadFailureThenResumes(t *testing.T) {
	specs, _, _, mono2 := twoGenWorld(t, 2, 2)
	// s1-r0's first reload tears; the second (after "repair") succeeds.
	specs[1].Replicas[0] = NewFaultBackend(specs[1].Replicas[0],
		FaultPlan{ReloadFailFrom: 1, ReloadOKFrom: 2})
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	err = c.RunRollout(context.Background(), RolloutConfig{CanarySQL: rankedSQL})
	if err == nil {
		t.Fatal("rollout with a torn reload reported success")
	}
	if !strings.Contains(err.Error(), "s1-r0") || !strings.Contains(err.Error(), "reload") {
		t.Fatalf("halt error %q does not name the torn replica", err)
	}
	st := c.RolloutStatus()
	if st.State != "failed" {
		t.Fatalf("rollout state = %q, want failed", st.State)
	}
	// s0 finished before the halt; s1 halted on its first replica with the
	// old generation intact, and s1-r1 was never touched.
	if st.Shards[0].State != "done" {
		t.Fatalf("shard s0 state = %q, want done", st.Shards[0].State)
	}
	if st.Shards[1].State != "failed" {
		t.Fatalf("shard s1 state = %q, want failed", st.Shards[1].State)
	}
	if r := st.Shards[1].Replicas[0]; r.State != "failed" || r.Error == "" {
		t.Fatalf("s1-r0 rollout = %+v, want failed with the reload error", r)
	}
	if r := st.Shards[1].Replicas[1]; r.State != "pending" {
		t.Fatalf("s1-r1 rollout state = %q, want pending (halt stops the walk)", r.State)
	}
	assertNoHeldBreakers(t, c)
	if got := c.mRollouts["failed"].Value(); got != 1 {
		t.Fatalf("rollouts_total{failed} = %d, want 1", got)
	}

	// Mid-halt the cluster is mixed: s0 answers from generation 2, s1 from
	// generation 1 — still correct per shard, flagged as degraded.
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MixedGenerations || !res.Degraded() {
		t.Fatalf("mixed-generation answer not flagged: mixed %v, degraded %v", res.MixedGenerations, res.Degraded())
	}
	if res.Generations["s0"] != 2 || res.Generations["s1"] != 1 {
		t.Fatalf("generations after halt = %v, want s0:2 s1:1", res.Generations)
	}

	// Re-running after the repair resumes: s0 reloads as a no-op, s1
	// completes, and the guard goes quiet.
	if err := c.RunRollout(context.Background(), RolloutConfig{CanarySQL: rankedSQL}); err != nil {
		t.Fatalf("re-run after repair: %v", err)
	}
	res, err = c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono2, rankedSQL))
	if res.MixedGenerations || res.Degraded() {
		t.Fatal("post-repair answer still flagged")
	}
	assertNoHeldBreakers(t, c)
}

func TestRolloutRequireAdvance(t *testing.T) {
	gen1, _ := buildWorld(t, 1)
	b := NewLocalBackend("s0-r0", 1, gen1[0]) // nothing staged: reload is a no-op
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{b}}}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunRollout(context.Background(), RolloutConfig{RequireAdvance: true})
	if err == nil || !strings.Contains(err.Error(), "advance") {
		t.Fatalf("no-op reload with RequireAdvance: err = %v, want a did-not-advance failure", err)
	}
	// Without RequireAdvance the same no-op walk completes.
	if err := c.RunRollout(context.Background(), RolloutConfig{}); err != nil {
		t.Fatalf("no-op rollout without RequireAdvance: %v", err)
	}
}

func TestRolloutRejectsConcurrent(t *testing.T) {
	specs, _, _, _ := twoGenWorld(t, 1, 1)
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.rolloutMu.Lock()
	c.rolloutActive = true
	c.rolloutMu.Unlock()
	if err := c.RunRollout(context.Background(), RolloutConfig{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("concurrent RunRollout: err = %v, want ErrRolloutActive", err)
	}
	if err := c.StartRollout(context.Background(), RolloutConfig{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("concurrent StartRollout: err = %v, want ErrRolloutActive", err)
	}
	c.rolloutMu.Lock()
	c.rolloutActive = false
	c.rolloutMu.Unlock()
	if err := c.RunRollout(context.Background(), RolloutConfig{}); err != nil {
		t.Fatalf("rollout after the first finished: %v", err)
	}
}

// slowReloadBackend holds Reload until released, so tests can observe the
// draining window from outside.
type slowReloadBackend struct {
	*LocalBackend
	gate chan struct{}
}

func (b *slowReloadBackend) Reload(ctx context.Context) (int, error) {
	select {
	case <-b.gate:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return b.LocalBackend.Reload(ctx)
}

// TestRolloutDrainSurvivesHealthProbe is the satellite regression test: a
// replica held open by a rollout drain must not be flipped back into
// rotation by a concurrent background health probe succeeding mid-reload.
func TestRolloutDrainSurvivesHealthProbe(t *testing.T) {
	gen1, _ := buildWorld(t, 1)
	gen2, _ := buildWorldSeeded(t, 1, 200)
	inner := NewLocalBackend("s0-r0", 1, gen1[0])
	inner.StageGeneration(2, gen2[0])
	slow := &slowReloadBackend{LocalBackend: inner, gate: make(chan struct{})}
	sibling := NewLocalBackend("s0-r1", 1, gen1[0])
	sibling.StageGeneration(2, gen2[0])
	cfg := fastConfig()
	cfg.ShardTimeout = 10 * time.Second // Reload blocks until we open the gate
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{slow, sibling}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.StartRollout(context.Background(), RolloutConfig{}); err != nil {
		t.Fatal(err)
	}
	brk := c.shards[0].replicas[0].breaker
	deadline := time.Now().Add(5 * time.Second)
	for !brk.Held() {
		if time.Now().After(deadline) {
			t.Fatal("rollout never reached the drain")
		}
		time.Sleep(time.Millisecond)
	}

	// The replica is healthy the whole time — a background probe passes —
	// but the drain hold must discard that success and keep refusing
	// traffic until the reload finishes.
	c.ProbeAll(context.Background())
	if brk.Allow() {
		t.Fatal("health probe re-opened a draining replica to traffic")
	}
	if brk.State() != BreakerOpen {
		t.Fatalf("draining breaker state = %v, want open", brk.State())
	}
	for _, rs := range c.Status() {
		if rs.Replicas[0].Breaker != "draining" {
			t.Fatalf("status breaker = %q, want draining", rs.Replicas[0].Breaker)
		}
	}
	// Traffic keeps flowing through the sibling while r0 drains.
	if _, err := c.TopK(context.Background(), rankedSQL); err != nil {
		t.Fatalf("query during drain: %v", err)
	}

	close(slow.gate)
	for c.RolloutStatus().State == "running" {
		if time.Now().After(deadline) {
			t.Fatal("rollout never finished after the gate opened")
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.RolloutStatus(); st.State != "done" {
		t.Fatalf("rollout state = %q, want done (%+v)", st.State, st)
	}
	if !brk.Allow() {
		t.Fatal("verified replica still refused after the rollout")
	}
}

func TestRolloutHTTPEndpoint(t *testing.T) {
	specs, _, _, mono2 := twoGenWorld(t, 2, 2)
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Idle before anything starts.
	var st RolloutStatus
	getJSON(t, srv.URL+"/rollout", &st)
	if st.State != "idle" {
		t.Fatalf("initial rollout state = %q, want idle", st.State)
	}

	body, _ := json.Marshal(map[string]any{"canary_sql": rankedSQL, "drain_wait_ms": 200})
	resp, err := http.Post(srv.URL+"/rollout", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /rollout status = %d, want 202", resp.StatusCode)
	}
	// A second POST while the walk is still draining conflicts.
	resp, err = http.Post(srv.URL+"/rollout", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent POST /rollout status = %d, want 409", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, srv.URL+"/rollout", &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout stuck in %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("rollout state = %q, want done (%+v)", st.State, st)
	}

	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, mono2, rankedSQL))
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestMixedGenerationGuard(t *testing.T) {
	gen1, _ := buildWorld(t, 2)
	gen2, _ := buildWorldSeeded(t, 2, 200)
	// s0 already on generation 2, s1 still on 1: the scatter must be
	// flagged, never silently merged.
	c, err := New([]ShardSpec{
		{Name: "s0", Replicas: []Backend{NewLocalBackend("s0-r0", 2, gen2[0])}},
		{Name: "s1", Replicas: []Backend{NewLocalBackend("s1-r0", 1, gen1[1])}},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MixedGenerations || !res.Degraded() {
		t.Fatalf("cross-generation scatter not flagged: %+v", res.Generations)
	}
	if c.mMixedGen.Value() != 1 {
		t.Fatalf("mixed_generation_answers_total = %d, want 1", c.mMixedGen.Value())
	}

	// Generation 0 means "unknown" and is excluded: a backend that does
	// not report generations must not trip the guard.
	unknown := &stubBackend{name: "s1-r0", fn: func(ctx context.Context, req Request) (*Response, error) {
		return &Response{Shard: "s1", Replica: "s1-r0", Generation: 0}, nil
	}}
	c2, err := New([]ShardSpec{
		{Name: "s0", Replicas: []Backend{NewLocalBackend("s0-r0", 2, gen2[0])}},
		{Name: "s1", Replicas: []Backend{unknown}},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err = c2.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.MixedGenerations {
		t.Fatal("generation-0 (unknown) answer tripped the guard")
	}
}

// TestRolloutDrainWaitBounds: POST /rollout takes drain_wait_ms as whole
// milliseconds of a time.Duration. Absent or 0 means no wait; a value up to
// the largest whole-millisecond Duration is honoured; a negative value, or
// one whose Duration would overflow (and wrap to a negative wait that skips
// the drain), is a 400 with an ErrorBody.
func TestRolloutDrainWaitBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"absent", `{}`, http.StatusAccepted},
		{"zero", `{"drain_wait_ms": 0}`, http.StatusAccepted},
		{"500ms", `{"drain_wait_ms": 500}`, http.StatusAccepted},
		{"negative", `{"drain_wait_ms": -1}`, http.StatusBadRequest},
		{"largest", `{"drain_wait_ms": 9223372036854}`, http.StatusAccepted},
		{"overflow", `{"drain_wait_ms": 9223372036855}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, _, _, _ := twoGenWorld(t, 1, 1)
			c, err := New(specs, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			start := time.Now()
			resp, err := http.Post(srv.URL+"/rollout", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var eb struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("POST /rollout %s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
			}
			if tc.want != http.StatusAccepted {
				if err != nil || !strings.Contains(eb.Error, "drain_wait_ms") {
					t.Fatalf("POST /rollout %s: error body %+v (%v), want one naming drain_wait_ms", tc.body, eb, err)
				}
				if st := c.RolloutStatus(); st.State != "idle" {
					t.Fatalf("a refused rollout started: state %q", st.State)
				}
				return
			}
			rep := func() ReplicaRollout { return c.RolloutStatus().Shards[0].Replicas[0] }
			deadline := time.Now().Add(10 * time.Second)
			if tc.name == "largest" {
				// The drain is honoured, not wrapped away: the replica is
				// still draining well after it began. The rollout sits there
				// for the life of the test binary.
				for rep().State != "draining" {
					if time.Now().After(deadline) {
						t.Fatalf("rollout never reached the drain: %+v", c.RolloutStatus())
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(100 * time.Millisecond)
				if st := rep().State; st != "draining" {
					t.Fatalf("replica state %q 100ms into a drain of 292 years", st)
				}
				return
			}
			for c.RolloutStatus().State == "running" {
				if time.Now().After(deadline) {
					t.Fatal("rollout never finished")
				}
				time.Sleep(time.Millisecond)
			}
			if st := c.RolloutStatus(); st.State != "done" {
				t.Fatalf("rollout state %q, want done (%+v)", st.State, st)
			}
			if tc.name == "500ms" && time.Since(start) < 500*time.Millisecond {
				t.Fatalf("rollout done after %v, inside its 500ms drain", time.Since(start))
			}
		})
	}
}
