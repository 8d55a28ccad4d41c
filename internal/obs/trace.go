package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// NewQueryID returns a fresh 16-hex-char query identifier.
func NewQueryID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively impossible on supported
		// platforms; a constant fallback keeps the serving path alive.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidSpanRef reports whether s is acceptable as an X-SVQ-Parent-Span
// value: non-empty, at most 128 chars, limited to the span-id charset
// (alphanumerics plus ./:_-). Inbound headers failing this are ignored
// rather than recorded.
func ValidSpanRef(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, r := range s {
		ok := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') ||
			r == '.' || r == '/' || r == ':' || r == '_' || r == '-'
		if !ok {
			return false
		}
	}
	return true
}

// Trace collects the spans of one query. It is safe for concurrent use:
// parallel ingestion workers append spans from their own goroutines.
//
// Spans form a tree: StartSpan derives the parent from the context (see
// WithSpan), AddSpanUnder parents explicitly, and Snapshot renders the
// tree depth-first. A trace that arrived from another process records the
// caller's span id (SetRemoteParent) so the coordinator side can correlate.
type Trace struct {
	mu           sync.Mutex
	id           string
	start        time.Time
	spans        []*Span
	nextID       int
	remoteParent string
}

// NewTrace starts a trace identified by id (typically a NewQueryID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: now()}
}

// ID returns the trace's query ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetRemoteParent records the span id of the remote caller that initiated
// this trace (the X-SVQ-Parent-Span header). Informational: it is surfaced
// in the snapshot so an operator can correlate a shard-local trace with the
// coordinator span that requested it.
func (t *Trace) SetRemoteParent(spanID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.remoteParent = spanID
	t.mu.Unlock()
}

// Span is one timed stage of a query. Spans are created by StartSpan (live
// wall-clock spans, ended with End) or AddSpan/AddSpanUnder (pre-measured
// stages, e.g. a predicate's accumulated share of the clip loop reported
// at the end of a run). Each span may carry grafted subtrees: snapshots
// reported by a remote process (a shard's own trace) that Snapshot splices
// in as children, re-anchored to this span's start so clock skew between
// hosts cannot reorder the tree.
type Span struct {
	mu     sync.Mutex
	trace  *Trace
	id     int
	parent *Span
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []attr
	grafts []*TraceSnapshot
}

// attr is one span attribute. A span keeps its attributes in the order
// they were first set; setting a key again replaces its value in place.
type attr struct {
	key   string
	value any
}

// now is the trace clock: span starts, live durations and trace durations
// all read it. Tests pin it.
var now = time.Now

func (t *Trace) newSpan(parent *Span, name string, start time.Time, dur time.Duration, ended bool) *Span {
	if parent != nil && parent.trace != t {
		// A context can carry a span from an outer, different trace (e.g.
		// a fleet span above a per-video trace); never stitch across
		// traces.
		parent = nil
	}
	s := &Span{trace: t, parent: parent, name: name, start: start, dur: dur, ended: ended}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// StartSpan opens a live span on the context's trace, parented under the
// context's current span (WithSpan), or at the root when there is none. It
// returns nil when the context carries no trace; every Span method is
// nil-safe, so instrumented code needs no conditionals.
func StartSpan(ctx context.Context, name string) *Span {
	t := TraceFrom(ctx)
	if t == nil {
		return nil
	}
	return t.newSpan(SpanFrom(ctx), name, now(), 0, false)
}

// AddSpan records a pre-measured root span: a stage that began at start and
// ran for dur of accumulated work. Nil-safe on the trace.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(nil, name, start, dur, true)
}

// AddSpanUnder records a pre-measured span as a child of parent; a nil
// parent (or a parent from another trace) yields a root span. Nil-safe on
// the trace.
func (t *Trace) AddSpanUnder(parent *Span, name string, start time.Time, dur time.Duration) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(parent, name, start, dur, true)
}

// StartChild opens a live child span under s. Nil-safe: a nil receiver
// returns nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(s, name, now(), 0, false)
}

// End closes a live span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = now().Sub(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return s
		}
	}
	if s.attrs == nil {
		s.attrs = make([]attr, 0, 8)
	}
	s.attrs = append(s.attrs, attr{key, value})
	return s
}

// Graft attaches a remote trace snapshot (a shard's own span tree) as a
// subtree of s. Snapshot re-anchors the grafted spans' offsets to s's start,
// so the assembled tree is immune to clock skew between processes. Nil-safe
// on both receiver and snapshot.
func (s *Span) Graft(ts *TraceSnapshot) *Span {
	if s == nil || ts == nil {
		return s
	}
	s.mu.Lock()
	s.grafts = append(s.grafts, ts)
	s.mu.Unlock()
	return s
}

// ID returns the span's trace-local identifier ("s1", "s2", ... in creation
// order), or "" for a nil span. The same id appears in the snapshot, and is
// what X-SVQ-Parent-Span carries across processes.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return "s" + strconv.Itoa(s.id)
}

// SpanSnapshot is the JSON form of one span; StartMS is relative to the
// trace start. ID is the span's trace-local identifier and Parent the ID of
// its parent span ("" for roots); spans grafted from a remote process get
// composite ids ("s4/s2": remote span s2 under local span s4). Snapshot
// orders spans depth-first — every span appears immediately after its
// ancestors — so a reader can render the tree from the flat list alone.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	ID         string         `json:"id,omitempty"`
	Parent     string         `json:"parent,omitempty"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is the JSON form of a trace, surfaced in the /query response
// under "trace" and retained by the TraceStore.
type TraceSnapshot struct {
	QueryID    string         `json:"query_id"`
	ParentSpan string         `json:"parent_span,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpanNames returns the names of every span recorded so far, in insertion
// order (test helper and log enrichment).
func (t *Trace) SpanNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, len(t.spans))
	for i, s := range t.spans {
		names[i] = s.name
	}
	return names
}

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches a trace to the context. Any current span from an outer
// trace is cleared: spans never parent across traces.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	ctx = context.WithValue(ctx, traceKey{}, t)
	return context.WithValue(ctx, spanKey{}, (*Span)(nil))
}

// WithoutTrace returns a context that carries no trace, shadowing any trace
// an outer context holds. Fan-out layers use it to keep per-item span trees
// (e.g. one engine run per fleet video) from flooding the parent trace while
// still propagating the parent's cancellation.
func WithoutTrace(ctx context.Context) context.Context {
	ctx = context.WithValue(ctx, traceKey{}, (*Trace)(nil))
	return context.WithValue(ctx, spanKey{}, (*Span)(nil))
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// WithSpan marks s as the context's current span: StartSpan calls on the
// returned context create children of s. A nil s is fine (clears the
// current span).
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
