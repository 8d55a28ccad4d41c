package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svqact/internal/httpd"
)

func mustOverload(t *testing.T, err error, reason string) *OverloadError {
	t.Helper()
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("got %v, want *OverloadError", err)
	}
	if over.Reason != reason {
		t.Fatalf("shed reason %q, want %q (err: %v)", over.Reason, reason, err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("OverloadError without a RetryAfter: %v", err)
	}
	return over
}

func TestShardPressureRaisedBy429(t *testing.T) {
	calls := 0
	throttling := &stubBackend{name: "s0-r0", fn: func(ctx context.Context, req Request) (*Response, error) {
		calls++
		if calls == 1 {
			return nil, &replicaError{Replica: "s0-r0", Status: 429,
				RetryAfter: 2 * time.Second, Err: errors.New("throttled")}
		}
		return &Response{Shard: "s0", Replica: "s0-r0", Generation: 1}, nil
	}}
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{throttling}}}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK(context.Background(), rankedSQL); err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if p := c.pressure(); p <= 0 || p > 2*time.Second {
		t.Fatalf("pressure after a 429 = %v, want (0, 2s]", p)
	}
	if got := c.shards[0].backpressure.Value(); got != 1 {
		t.Fatalf("backpressure counter = %d, want 1", got)
	}
}

func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	cfg := fastConfig()
	cfg.BaseBackoff = time.Millisecond
	cfg.MaxBackoff = 50 * time.Millisecond
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{&stubBackend{name: "s0-r0",
		fn: func(context.Context, Request) (*Response, error) { return nil, errors.New("nope") }}}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{SQL: rankedSQL, QueryID: "deadbeefdeadbeef"}

	plain := c.backoff(req, "s0", 1, 0)
	if plain < cfg.BaseBackoff/2 || plain > cfg.MaxBackoff+cfg.MaxBackoff/2 {
		t.Fatalf("no-hint backoff %v outside [base/2, 1.5*max]", plain)
	}
	// A hint above the jittered delay is honored exactly.
	if got := c.backoff(req, "s0", 1, 20*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("backoff with 20ms hint = %v, want 20ms", got)
	}
	// A hint above MaxBackoff is clamped to it.
	if got := c.backoff(req, "s0", 1, 5*time.Second); got != cfg.MaxBackoff {
		t.Fatalf("backoff with 5s hint = %v, want the %v ceiling", got, cfg.MaxBackoff)
	}
	// So is a header whose seconds overflow a Duration.
	for _, header := range []string{"9223372037", "18446744074"} {
		if got := c.backoff(req, "s0", 1, parseRetryAfter(header)); got != cfg.MaxBackoff {
			t.Fatalf("backoff with Retry-After %s = %v, want the %v ceiling", header, got, cfg.MaxBackoff)
		}
	}
	// A hint below the jittered delay changes nothing.
	if got := c.backoff(req, "s0", 6, time.Nanosecond); got != c.backoff(req, "s0", 6, 0) {
		t.Fatalf("tiny hint changed the backoff: %v != %v", got, c.backoff(req, "s0", 6, 0))
	}
}

// overloadedCoordinator builds a 1-slot coordinator whose single replica
// blocks until the returned unblock is called, plus a goroutine holding
// the slot. Callers must call unblock exactly once.
func overloadedCoordinator(t *testing.T) (c *Coordinator, unblock func(), served *atomic.Int64) {
	t.Helper()
	block := make(chan struct{})
	n := new(atomic.Int64)
	backend := &stubBackend{name: "s0-r0", fn: func(ctx context.Context, req Request) (*Response, error) {
		n.Add(1)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Response{Shard: "s0", Replica: "s0-r0", Generation: 1}, nil
	}}
	cfg := fastConfig()
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = -1
	c, err := New([]ShardSpec{{Name: "s0", Replicas: []Backend{backend}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.TopK(context.Background(), rankedSQL)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Admission().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slot-holder query never started")
		}
		time.Sleep(time.Millisecond)
	}
	var once bool
	return c, func() {
		if !once {
			once = true
			close(block)
			<-done
		}
	}, n
}

func TestCoordinatorShedsBeforeShardWork(t *testing.T) {
	c, unblock, served := overloadedCoordinator(t)
	defer unblock()
	_, err := c.TopK(context.Background(), rankedSQL)
	mustOverload(t, err, "queue_full")
	if got := served.Load(); got != 1 {
		t.Fatalf("shed query reached the shard: %d backend calls, want 1", got)
	}
}

func TestHandlerOverload429(t *testing.T) {
	c, unblock, _ := overloadedCoordinator(t)
	defer unblock()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql": `+jsonString(rankedSQL)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want a positive seconds value", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "overloaded") {
		t.Fatalf("error body %q does not mention the overload", body.Error)
	}

	// The health endpoint mirrors the admission counters.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Admission httpd.AdmissionHealth `json:"admission"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Admission.Capacity != 1 || health.Admission.Inflight != 1 || health.Admission.Rejected < 1 {
		t.Fatalf("admission health = %+v, want capacity 1, inflight 1, rejected >= 1", health.Admission)
	}

	// And the metrics exposition carries the admission family.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"svqact_cluster_admission_rejected_total",
		"svqact_cluster_admission_admitted_total",
		"svqact_cluster_admission_inflight",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("/metrics is missing %s", name)
		}
	}
}

func TestHandlerBatchPerEntryShedding(t *testing.T) {
	c, unblock, _ := overloadedCoordinator(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(queries []string) (*http.Response, BatchAnswer) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"queries": queries})
		resp, err := http.Post(srv.URL+"/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out BatchAnswer
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Every rankable entry sheds while the slot is held: the whole batch
	// is a 429 with Retry-After, each entry individually marked.
	resp, out := post([]string{rankedSQLK(3), rankedSQLK(4)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-shed batch status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-shed batch lost the Retry-After header")
	}
	for i, e := range out.Entries {
		if !e.Shed || e.RetryAfterSeconds < 1 {
			t.Fatalf("entry %d = shed %v retry_after %d, want shed with a retry hint", i, e.Shed, e.RetryAfterSeconds)
		}
	}

	// A mixed batch (one shed, one rejected at parse before admission)
	// stays a 200 but still carries Retry-After for the shed entry.
	resp, out = post([]string{rankedSQLK(3), "THIS IS NOT SQL"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partially-shed batch status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("partially-shed batch lost the Retry-After header")
	}
	if !out.Entries[0].Shed || out.Entries[1].Shed {
		t.Fatalf("shed flags = [%v %v], want [true false]", out.Entries[0].Shed, out.Entries[1].Shed)
	}
	if out.Entries[1].Error == "" {
		t.Fatal("parse-rejected entry lost its error")
	}

	// Slot freed: nothing sheds and the header disappears.
	unblock()
	resp, out = post([]string{rankedSQLK(3)})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("healthy batch: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if out.Entries[0].Shed {
		t.Fatal("healthy batch entry marked shed")
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
