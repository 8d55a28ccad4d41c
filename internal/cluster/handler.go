package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"svqact/internal/httpd"
	"svqact/internal/obs"
)

// HTTP front of the coordinator. Where the contract overlaps cmd/serve's
// (POST /query, GET /healthz, GET /metrics, X-Query-ID correlation, 429
// shedding, body limits, panic recovery) it goes through the same
// internal/httpd front; the cluster-only pieces are that POST /query/batch
// takes a list of ranked statements, and that every answer carries the
// shards {ok, degraded, failed} partition so clients can tell a complete
// answer from a gracefully degraded one without parsing errors.

// maxBodyBytes bounds a /query or /query/batch request body, as cmd/serve's
// default does.
const maxBodyBytes = 1 << 20

// QueryAnswer is the coordinator's /query response body (and one entry of
// a /query/batch response).
type QueryAnswer struct {
	QueryID string `json:"query_id,omitempty"`
	SQL     string `json:"sql,omitempty"`
	*TopKResult
	// Degraded flags a partial answer; Error then explains the first
	// shard loss. The HTTP status stays 200: a degraded answer is still
	// an answer.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Shed marks a batch entry rejected by the admission gate before any
	// shard work; RetryAfterSeconds is its retry hint. A shed entry has
	// no result at all — unlike degraded, which is still an answer.
	Shed              bool               `json:"shed,omitempty"`
	RetryAfterSeconds int                `json:"retry_after_seconds,omitempty"`
	ElapsedMS         int64              `json:"elapsed_ms"`
	Trace             *obs.TraceSnapshot `json:"trace,omitempty"`
}

// BatchAnswer is the coordinator's /query/batch response body.
type BatchAnswer struct {
	QueryID string        `json:"query_id,omitempty"`
	Entries []QueryAnswer `json:"entries"`
	// Shards folds every entry's partition, keeping each shard's worst
	// outcome across the batch.
	Shards    Partition          `json:"shards"`
	Degraded  bool               `json:"degraded,omitempty"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Trace     *obs.TraceSnapshot `json:"trace,omitempty"`
}

// Handler returns the coordinator's HTTP handler: POST /query, POST
// /query/batch, GET /healthz, GET /shards, GET|POST /rollout, GET
// /metrics, all under the panic-recovery middleware.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/query/batch", c.handleBatch)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/shards", c.handleShards)
	mux.HandleFunc("/rollout", c.handleRollout)
	mux.Handle("/metrics", c.cfg.Registry.Handler())
	mux.Handle("/debug/traces", c.traces.Handler())
	mux.Handle("/debug/traces/", c.traces.Handler())
	return httpd.Recover(c.log, c.panics, mux)
}

// runOne scatter-gathers one statement inside the given trace context and
// folds the outcome into a QueryAnswer. Fatal (bad-request) errors come
// back as the second return.
func (c *Coordinator) runOne(r *http.Request, trace *obs.Trace, sql string) (QueryAnswer, error) {
	start := time.Now()
	ctx := obs.WithTrace(r.Context(), trace)
	res, err := c.TopK(ctx, sql)
	ans := QueryAnswer{QueryID: trace.ID(), TopKResult: res, ElapsedMS: time.Since(start).Milliseconds()}
	if res != nil && res.Degraded() {
		ans.Degraded = true
	}
	var deg *DegradedError
	switch {
	case err == nil:
	case errors.As(err, &deg):
		ans.Degraded = true
		ans.Error = deg.Error()
	default:
		return ans, err
	}
	return ans, nil
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SQL string `json:"sql"`
	}
	if !httpd.DecodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	if req.SQL == "" {
		httpd.WriteJSON(w, http.StatusBadRequest, httpd.ErrorBody{Error: "body must be {\"sql\": \"...\"}"})
		return
	}
	trace := httpd.Mint(w, r)
	ans, err := c.runOne(r, trace, req.SQL)
	if err != nil {
		var over *OverloadError
		if errors.As(err, &over) {
			// No trace is offered — a shed request did no work.
			httpd.Shed(w, over)
			return
		}
		status := http.StatusInternalServerError
		var bad *BadRequestError
		if errors.As(err, &bad) {
			status = http.StatusBadRequest
		}
		httpd.OfferTrace(c.traces, c.log, trace.Snapshot(), req.SQL, "error")
		httpd.WriteJSON(w, status, httpd.ErrorBody{Error: err.Error()})
		return
	}
	ans.Trace = trace.Snapshot()
	status := http.StatusOK
	outcome := "ok"
	if ans.Degraded {
		outcome = "degraded"
	}
	if ans.TopKResult != nil && len(ans.Partition.Failed) == len(c.shards) {
		// Nothing answered at all: that is an outage, not degradation.
		status = http.StatusServiceUnavailable
		outcome = "failed"
	}
	httpd.OfferTrace(c.traces, c.log, ans.Trace, req.SQL, outcome)
	httpd.WriteJSON(w, status, ans)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Queries []string `json:"queries"`
	}
	if !httpd.DecodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpd.WriteJSON(w, http.StatusBadRequest, httpd.ErrorBody{Error: "body must be {\"queries\": [\"...\", ...]}"})
		return
	}
	if len(req.Queries) > 256 {
		httpd.WriteJSON(w, http.StatusBadRequest, httpd.ErrorBody{Error: "at most 256 queries per batch"})
		return
	}
	trace := httpd.Mint(w, r)
	start := time.Now()
	out := BatchAnswer{QueryID: trace.ID()}
	// Entries run sequentially: batch statements share the replica
	// breakers and fault schedules, and a deterministic call order is
	// what makes kill/failover tests (and incident reconstructions from
	// the trace) replayable.
	shed := 0
	var longest *OverloadError
	for _, sql := range req.Queries {
		ans, err := c.runOne(r, trace, sql)
		ans.SQL = sql
		if err != nil {
			var over *OverloadError
			if errors.As(err, &over) {
				// Per-entry shedding: the overloaded entries carry the
				// Retry-After contract; the rest of the batch still ran.
				ans.Shed = true
				ans.Error = err.Error()
				ans.RetryAfterSeconds = over.RetryAfterSeconds()
				if longest == nil || over.RetryAfter > longest.RetryAfter {
					longest = over
				}
				shed++
				out.Entries = append(out.Entries, ans)
				continue
			}
			ans.Error = err.Error()
			ans.Degraded = true
		}
		if ans.TopKResult != nil {
			out.Shards.Merge(ans.Partition)
		}
		out.Entries = append(out.Entries, ans)
	}
	for _, e := range out.Entries {
		if e.Degraded {
			out.Degraded = true
		}
	}
	out.ElapsedMS = time.Since(start).Milliseconds()
	out.Trace = trace.Snapshot()
	outcome := "ok"
	if out.Degraded {
		outcome = "degraded"
	}
	status := http.StatusOK
	if shed > 0 {
		// Any shed entry sets the batch-level Retry-After; a fully shed
		// batch is itself a 429 (no entry did any work).
		w.Header().Set("Retry-After", strconv.Itoa(longest.RetryAfterSeconds()))
		if shed == len(out.Entries) {
			status = http.StatusTooManyRequests
		}
	}
	httpd.OfferTrace(c.traces, c.log, out.Trace, strings.Join(req.Queries, "; "), outcome)
	httpd.WriteJSON(w, status, out)
}

// clusterHealth is the /healthz body.
type clusterHealth struct {
	Status    string                `json:"status"`
	Shards    []ShardStatus         `json:"shards"`
	Replicas  int                   `json:"replicas"`
	Admission httpd.AdmissionHealth `json:"admission"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpd.WriteJSON(w, http.StatusMethodNotAllowed, httpd.ErrorBody{Error: "GET only"})
		return
	}
	st := c.Status()
	n := 0
	healthy := true
	for _, sh := range st {
		shardUp := false
		for _, rep := range sh.Replicas {
			n++
			if rep.Breaker != BreakerOpen.String() && rep.LastError == "" {
				shardUp = true
			}
		}
		if !shardUp {
			healthy = false
		}
	}
	body := clusterHealth{Status: "ok", Shards: st, Replicas: n, Admission: c.Admission()}
	status := http.StatusOK
	if !healthy {
		body.Status = "degraded"
	}
	httpd.WriteJSON(w, status, body)
}

// handleRollout serves the rolling generation swap: GET reports progress,
// POST starts one (409 while another is running). The POST body tunes the
// swap:
//
//	{"canary_sql": "...", "canary_k": 1, "drain_wait_ms": 500,
//	 "require_advance": false}
//
// A drain_wait_ms outside [0, httpd.MaxCount(time.Millisecond)] is a 400.
//
// The rollout runs in the background; clients poll GET /rollout until
// state is "done" or "failed" (which is what `svq rollout` does).
func (c *Coordinator) handleRollout(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		httpd.WriteJSON(w, http.StatusOK, c.RolloutStatus())
	case http.MethodPost:
		var req struct {
			CanarySQL      string `json:"canary_sql"`
			CanaryK        int    `json:"canary_k"`
			DrainWaitMS    int    `json:"drain_wait_ms"`
			RequireAdvance bool   `json:"require_advance"`
		}
		// An empty body is a default rollout, not an error.
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			httpd.WriteJSON(w, http.StatusBadRequest, httpd.ErrorBody{Error: "malformed rollout body: " + err.Error()})
			return
		}
		// The wait is whole milliseconds of a Duration: a negative one, or
		// one the Duration cannot hold (it would wrap to a negative wait
		// that skips the drain), is refused.
		drainWait, ok := httpd.ToDuration(req.DrainWaitMS, time.Millisecond)
		if !ok {
			httpd.WriteJSON(w, http.StatusBadRequest, httpd.ErrorBody{
				Error: fmt.Sprintf("drain_wait_ms must be in [0, %d], got %d", httpd.MaxCount(time.Millisecond), req.DrainWaitMS),
			})
			return
		}
		cfg := RolloutConfig{
			CanarySQL:      req.CanarySQL,
			CanaryK:        req.CanaryK,
			DrainWait:      drainWait,
			RequireAdvance: req.RequireAdvance,
		}
		// The rollout outlives this request: it runs on the background
		// context, not r.Context().
		if err := c.StartRollout(context.Background(), cfg); err != nil {
			httpd.WriteJSON(w, http.StatusConflict, httpd.ErrorBody{Error: err.Error()})
			return
		}
		httpd.WriteJSON(w, http.StatusAccepted, c.RolloutStatus())
	default:
		httpd.WriteJSON(w, http.StatusMethodNotAllowed, httpd.ErrorBody{Error: "GET or POST only"})
	}
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpd.WriteJSON(w, http.StatusMethodNotAllowed, httpd.ErrorBody{Error: "GET only"})
		return
	}
	httpd.WriteJSON(w, http.StatusOK, struct {
		Shards []ShardStatus `json:"shards"`
	}{Shards: c.Status()})
}
