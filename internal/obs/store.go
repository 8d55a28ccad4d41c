package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SQLDigest returns a short stable digest of a statement (fnv-1a 64, hex):
// the grouping key the trace index exposes so an operator can spot "all the
// slow ones are the same query shape" without shipping full SQL everywhere.
func SQLDigest(sql string) string {
	if sql == "" {
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(strings.Join(strings.Fields(sql), " ")))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TraceMeta is what the serving layer knows about a finished query when it
// offers the trace for retention.
type TraceMeta struct {
	SQL     string // original statement (may be empty, e.g. malformed input)
	Outcome string // "ok", "degraded", "error", "failed", ...
}

// TraceIndexEntry is one row of GET /debug/traces.
type TraceIndexEntry struct {
	ID         string    `json:"id"`
	SQLDigest  string    `json:"sql_digest,omitempty"`
	SQL        string    `json:"sql,omitempty"`
	DurationMS float64   `json:"duration_ms"`
	Outcome    string    `json:"outcome"`
	Reason     string    `json:"reason"`
	Spans      int       `json:"spans"`
	StoredAt   time.Time `json:"stored_at"`
}

// StoredTrace is one retained trace: the index row plus the full span tree,
// the body of GET /debug/traces/{id}.
type StoredTrace struct {
	TraceIndexEntry
	Trace *TraceSnapshot `json:"trace"`
}

// TraceStoreConfig sizes a TraceStore. Zero values pick the defaults.
type TraceStoreConfig struct {
	Capacity     int     // retained traces before the ring evicts; default 256
	SampleEvery  int     // keep 1 in N healthy fast queries; default 16, <0 disables
	TailQuantile float64 // retain queries at or above this latency quantile; default 0.99
	MinTailCount uint64  // observations before the tail gate engages; default 32
}

func (c TraceStoreConfig) withDefaults() TraceStoreConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.TailQuantile <= 0 || c.TailQuantile >= 1 {
		c.TailQuantile = 0.99
	}
	if c.MinTailCount == 0 {
		c.MinTailCount = 32
	}
	return c
}

// TraceStore is a bounded in-memory ring of retained query traces: every
// error/degraded trace, tail-latency traces (at or above an adaptive
// quantile of the store's own latency distribution), and a sampled 1-in-N
// of healthy fast queries. The decision path is lock-cheap — an atomic
// sample counter and a lock-free histogram — and only actual retention
// takes the mutex.
type TraceStore struct {
	cfg  TraceStoreConfig
	seen atomic.Int64
	lat  *Histogram // query latency in seconds, feeds the adaptive tail gate

	seenC *Counter
	reg   atomic.Pointer[Registry]

	mu   sync.Mutex
	ring []*StoredTrace // circular, len == cfg.Capacity once warm
	next int            // ring slot the next retained trace lands in
	byID map[string]*StoredTrace
}

// NewTraceStore builds a store with cfg (zero fields defaulted).
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	cfg = cfg.withDefaults()
	return &TraceStore{
		cfg:   cfg,
		lat:   NewHistogram(nil),
		seenC: &Counter{},
		byID:  map[string]*StoredTrace{},
	}
}

// Offer decides whether to retain snap and stores it if so. It returns the
// retention reason ("error", "degraded", "failed", ... — the non-ok outcome
// verbatim — or "tail" or "sampled") and whether the trace was kept.
// Nil-safe on both receiver and snapshot.
func (st *TraceStore) Offer(snap *TraceSnapshot, meta TraceMeta) (reason string, retained bool) {
	if st == nil || snap == nil {
		return "", false
	}
	n := st.seen.Add(1)
	st.seenC.Inc()
	durSec := snap.DurationMS / 1000

	switch {
	case meta.Outcome != "" && meta.Outcome != "ok":
		reason = meta.Outcome
	case st.lat.Count() >= st.cfg.MinTailCount && durSec >= st.lat.Quantile(st.cfg.TailQuantile):
		reason = "tail"
	case st.cfg.SampleEvery > 0 && (n-1)%int64(st.cfg.SampleEvery) == 0:
		reason = "sampled"
	}
	// The gate compares against the distribution *before* this observation,
	// so a latency regression is caught by its first slow query.
	st.lat.Observe(durSec)
	if reason == "" {
		return "", false
	}

	outcome := meta.Outcome
	if outcome == "" {
		outcome = "ok"
	}
	entry := &StoredTrace{
		TraceIndexEntry: TraceIndexEntry{
			ID:         snap.QueryID,
			SQLDigest:  SQLDigest(meta.SQL),
			SQL:        meta.SQL,
			DurationMS: snap.DurationMS,
			Outcome:    outcome,
			Reason:     reason,
			Spans:      len(snap.Spans),
			StoredAt:   time.Now().UTC(),
		},
		Trace: snap,
	}

	st.mu.Lock()
	if len(st.ring) < st.cfg.Capacity {
		st.ring = append(st.ring, entry)
	} else {
		old := st.ring[st.next]
		if cur, ok := st.byID[old.ID]; ok && cur == old {
			delete(st.byID, old.ID)
		}
		st.ring[st.next] = entry
	}
	st.next = (st.next + 1) % st.cfg.Capacity
	st.byID[entry.ID] = entry
	st.mu.Unlock()

	if r := st.reg.Load(); r != nil {
		r.Counter("svqact_traces_retained_total",
			"Traces kept by the retained trace store, by retention reason.",
			L("reason", reason)).Inc()
	}
	return reason, true
}

// Get returns the retained trace with the given id, or nil. When the same
// query id was retained twice (e.g. a re-used id), the most recent wins.
func (st *TraceStore) Get(id string) *StoredTrace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.byID[id]
}

// Len returns the number of currently retained traces.
func (st *TraceStore) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.ring)
}

// Index returns the retained traces' index rows, newest first.
func (st *TraceStore) Index() []TraceIndexEntry {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceIndexEntry, 0, len(st.ring))
	for i := 1; i <= len(st.ring); i++ {
		// Walk backwards from the most recently written slot.
		idx := (st.next - i + len(st.ring)) % len(st.ring)
		out = append(out, st.ring[idx].TraceIndexEntry)
	}
	return out
}

// Register exposes the store's health on a metrics registry:
// svqact_traces_seen_total, svqact_traces_retained_total{reason} and
// svqact_trace_store_size.
func (st *TraceStore) Register(r *Registry) {
	if st == nil || r == nil {
		return
	}
	st.reg.Store(r)
	r.AttachCounter("svqact_traces_seen_total",
		"Query traces offered to the retained trace store.", st.seenC)
	// Pre-register the common reasons so the family exists (with a TYPE
	// line) before the first retention.
	for _, reason := range []string{"error", "degraded", "tail", "sampled"} {
		r.Counter("svqact_traces_retained_total",
			"Traces kept by the retained trace store, by retention reason.",
			L("reason", reason))
	}
	r.GaugeFunc("svqact_trace_store_size",
		"Traces currently retained in the trace store ring.",
		func() float64 { return float64(st.Len()) })
}

// traceIndexResponse is the body of GET /debug/traces.
type traceIndexResponse struct {
	Count  int               `json:"count"`
	Traces []TraceIndexEntry `json:"traces"`
}

// Handler serves the store over HTTP: GET /debug/traces (index, newest
// first) and GET /debug/traces/{id} (full stored trace). Mount it at both
// "/debug/traces" and "/debug/traces/".
func (st *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/debug/traces")
		rest = strings.Trim(rest, "/")
		w.Header().Set("Content-Type", "application/json")
		if rest == "" {
			idx := st.Index()
			_ = json.NewEncoder(w).Encode(traceIndexResponse{Count: len(idx), Traces: idx})
			return
		}
		entry := st.Get(rest)
		if entry == nil {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "no retained trace " + rest})
			return
		}
		_ = json.NewEncoder(w).Encode(entry)
	})
}
