package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"svqact/internal/detect"
	"svqact/internal/httpd"
)

const cheapQuery = `{"sql": "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves'"}`

var (
	// faultAll fails enough detector invocations to trip a tight budget;
	// faultSome flags a visible minority of clips but stays within the
	// default budget.
	faultAll  = detect.FaultConfig{PermanentRate: 0.5, Seed: 7}
	faultSome = detect.FaultConfig{PermanentRate: 0.05, Seed: 7}
)

func postQuery(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestSaturationRejectsWithRetryAfter: with the only execution slot taken
// and the queue wait elapsed, a request gets 429 + Retry-After within a
// bounded delay instead of hanging.
func TestSaturationRejectsWithRetryAfter(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, MaxConcurrent: 1, QueueDepth: 1, QueueWait: 100 * time.Millisecond})
	occupy(t, s)
	h := s.Handler()

	start := time.Now()
	rr := postQuery(h, cheapQuery)
	elapsed := time.Since(start)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", rr.Code, rr.Body)
	}
	if elapsed < 100*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("rejection took %v, want ~QueueWait", elapsed)
	}
	ra, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", rr.Header().Get("Retry-After"))
	}
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("429 body not a JSON error: %s", rr.Body)
	}
	if got := s.Health(); got.Rejected != 1 || got.Inflight != 1 || got.Waiting != 0 {
		t.Errorf("health after rejection = %+v", got)
	}
}

// occupy takes one of s's execution slots, as an admitted query would.
func occupy(t *testing.T, s *Server) {
	t.Helper()
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterRoundsUp: a shed request is never told to come back before
// the queue wait it was shed after — 1.5s rounds up to "2", not down to "1".
func TestRetryAfterRoundsUp(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, MaxConcurrent: 1, QueueDepth: 1, QueueWait: 1500 * time.Millisecond})
	occupy(t, s)
	rr := postQuery(s.Handler(), cheapQuery)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
}

// TestQueueOverflowRejectsImmediately: once QueueDepth requests are already
// waiting, further requests are turned away without waiting at all.
func TestQueueOverflowRejectsImmediately(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, MaxConcurrent: 1, QueueDepth: 1, QueueWait: 5 * time.Second})
	occupy(t, s)
	h := s.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fills the one queue seat
		defer wg.Done()
		postQuery(h, `{`)
	}()
	for i := 0; s.Health().Waiting == 0; i++ {
		if i > 1000 {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	rr := postQuery(h, cheapQuery)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want instant 429", rr.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("overflow rejection took %v, want immediate", elapsed)
	}

	s.gate.Release() // free the slot; the queued request proceeds (bad JSON -> 400)
	wg.Wait()
	if got := s.Health(); got.Waiting != 0 || got.Inflight != 0 {
		t.Errorf("health after drain = %+v", got)
	}
}

// TestPanicRecoveryReturnsJSON500: a panicking handler produces a JSON 500,
// a log line with the stack, and a bumped panics counter — and the next
// request is served normally.
func TestPanicRecoveryReturnsJSON500(t *testing.T) {
	var logged strings.Builder
	s := New(Config{Scale: 0.05, Seed: 42,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	calls := 0
	h := httpd.Recover(s.log, s.panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		httpd.WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body not JSON: %s", rr.Body)
	}
	if !strings.Contains(body.Error, "boom") {
		t.Errorf("error = %q, want the panic value", body.Error)
	}
	if s.panics.Value() != 1 {
		t.Errorf("panics counter = %d", s.panics.Value())
	}
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "goroutine") {
		t.Errorf("panic not logged with stack: %q", out)
	}

	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rr2.Code != http.StatusOK {
		t.Errorf("request after panic: status = %d", rr2.Code)
	}
}

// TestPanicRecoveryReraisesAbortHandler: http.ErrAbortHandler keeps its
// net/http meaning and passes through the middleware.
func TestPanicRecoveryReraisesAbortHandler(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := httpd.Recover(s.log, s.panics, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler must be re-raised, not swallowed")
		}
		if s.panics.Value() != 0 {
			t.Error("ErrAbortHandler must not count as a handler panic")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query", nil))
}

// TestQueryDeadlineReturns504: a tiny per-query deadline interrupts the run
// and surfaces partial progress in the 504 body.
func TestQueryDeadlineReturns504(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, QueryTimeout: time.Nanosecond})
	rr := postQuery(s.Handler(), cheapQuery)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rr.Code, rr.Body)
	}
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("504 body not JSON: %s", rr.Body)
	}
	if body.Total == 0 {
		t.Errorf("504 body should report total clips: %+v", body)
	}
	if !strings.Contains(body.Error, "interrupted") {
		t.Errorf("error = %q, want an interruption message", body.Error)
	}
}

// TestBodyLimitReturns413: bodies over MaxBodyBytes are refused.
func TestBodyLimitReturns413(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, MaxBodyBytes: 64})
	rr := postQuery(s.Handler(), `{"sql": "`+strings.Repeat("x", 200)+`"}`)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rr.Code, rr.Body)
	}
}

// TestDegradedQueryReturns502: with aggressive permanent fault injection the
// failure budget trips and the query reports 502 with progress counters.
func TestDegradedQueryReturns502(t *testing.T) {
	s := New(Config{
		Scale: 0.05, Seed: 42,
		Fault:         &faultAll,
		FailureBudget: 0.01,
	})
	rr := postQuery(s.Handler(), cheapQuery)
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rr.Code, rr.Body)
	}
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("502 body not JSON: %s", rr.Body)
	}
	if body.Processed == 0 || body.Total == 0 {
		t.Errorf("502 body should report progress: %+v", body)
	}
}

// TestFaultTolerantQueryFlagsClips: moderate permanent faults stay within
// the budget; the query succeeds and reports its flagged clips.
func TestFaultTolerantQueryFlagsClips(t *testing.T) {
	s := New(Config{
		Scale: 0.05, Seed: 42,
		Fault:         &faultSome,
		FailureBudget: 0.5,
	})
	rr := postQuery(s.Handler(), cheapQuery)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rr.Code, rr.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.FlaggedClips == 0 {
		t.Errorf("expected flagged clips under fault injection: %+v", qr)
	}
	if qr.FlaggedClips >= qr.NumClips {
		t.Errorf("flagged %d of %d clips; query should still make progress", qr.FlaggedClips, qr.NumClips)
	}
}

// TestHealthzCountersAndShape exercises the full handler stack and checks
// every /healthz field.
func TestHealthzCountersAndShape(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42, MaxConcurrent: 3, QueueDepth: 5})
	h := s.Handler()
	if rr := postQuery(h, cheapQuery); rr.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", rr.Code, rr.Body)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rr.Code)
	}
	var hz Health
	if err := json.Unmarshal(rr.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Capacity != 3 || hz.QueueDepth != 5 {
		t.Errorf("healthz = %+v", hz)
	}
	if hz.Served != 1 || hz.Rejected != 0 || hz.Panics != 0 {
		t.Errorf("counters = served %d rejected %d panics %d", hz.Served, hz.Rejected, hz.Panics)
	}
	if hz.Inflight != 0 || hz.Waiting != 0 {
		t.Errorf("idle server reports inflight %d waiting %d", hz.Inflight, hz.Waiting)
	}
	if hz.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", hz.UptimeSeconds)
	}
}

// TestUnknownAlgorithmIsBadRequest: naming an algorithm the server does not
// have is the client's mistake — 400 and outcome bad_request in the query
// log line, not the 404 an unknown source earns.
func TestUnknownAlgorithmIsBadRequest(t *testing.T) {
	var logged strings.Builder
	s := New(Config{Scale: 0.05, Seed: 42, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(
		`{"sql": "SELECT MERGE(c) FROM (PROCESS q2 PRODUCE c) WHERE act='blowing_leaves'", "algo": "rvaq"}`)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rr.Code, rr.Body)
	}
	if out := logged.String(); !strings.Contains(out, "outcome=bad_request") || !strings.Contains(out, "status=400") {
		t.Errorf("query log line lacks outcome=bad_request status=400: %q", out)
	}
}
