package httpd

import (
	"context"
	"fmt"
	"time"

	"svqact/internal/obs"
)

// Gate is the admission control in front of a serving path: a bounded
// concurrency semaphore plus a short admission queue, shedding with a typed
// *OverloadError (HTTP 429 + Retry-After, see Shed). It is deadline-aware —
// a request whose deadline cannot survive the queue is shed at once instead
// of timing out after it was admitted — and it honours an optional
// backpressure signal: while pressure reports a window, an arrival that
// finds no free slot is shed rather than queued.
//
// The fast path (a free slot) takes no lock, allocates nothing and starts no
// timer; only a queued request arms one.
type Gate struct {
	sem        chan struct{}
	queueDepth int
	queueWait  time.Duration

	// pressure reports the remaining backpressure window (0 when calm).
	pressure func() time.Duration

	waiting  *obs.Gauge
	inflight *obs.Gauge
	admitted *obs.Counter
	rejected map[string]*obs.Counter
	waitHist *obs.Histogram
}

// shedReasons enumerates the shed reasons, in metric label order.
var shedReasons = []string{"queue_full", "saturated", "deadline", "backpressure"}

// waitBuckets resolve sub-millisecond queueing: most admitted requests wait
// for no slot at all.
var waitBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// NewGate builds a gate admitting maxConcurrent requests at once, with up to
// queueDepth more waiting at most queueWait each (queueDepth <= 0 means no
// queue). Its instruments register on reg under prefix: _waiting,
// _inflight, _admitted_total, _rejected_total{reason} and _wait_seconds.
// A nil pressure means no backpressure.
func NewGate(reg *obs.Registry, prefix string, maxConcurrent, queueDepth int, queueWait time.Duration, pressure func() time.Duration) *Gate {
	if pressure == nil {
		pressure = func() time.Duration { return 0 }
	}
	g := &Gate{
		sem:        make(chan struct{}, maxConcurrent),
		queueDepth: queueDepth,
		queueWait:  queueWait,
		pressure:   pressure,
		waiting: reg.Gauge(prefix+"_waiting",
			"Requests queued at the admission gate."),
		inflight: reg.Gauge(prefix+"_inflight",
			"Requests executing past the admission gate."),
		admitted: reg.Counter(prefix+"_admitted_total",
			"Requests admitted past the gate."),
		rejected: map[string]*obs.Counter{},
		waitHist: reg.Histogram(prefix+"_wait_seconds",
			"Time admitted requests spent queued for a slot.", waitBuckets),
	}
	for _, reason := range shedReasons {
		g.rejected[reason] = reg.Counter(prefix+"_rejected_total",
			"Requests shed by the admission gate with 429, by reason.", obs.L("reason", reason))
	}
	return g
}

// OverloadError reports a request shed by the admission gate before it did
// any work: the concurrency limit is saturated and the request could not
// (or, given its deadline, must not) wait out the queue. Clients should
// retry after RetryAfter; Shed maps it to 429 + Retry-After.
type OverloadError struct {
	// Reason: "queue_full" (admission queue at capacity), "saturated"
	// (queued the full wait without a slot freeing), "deadline" (the
	// request's deadline cannot survive the queue, or the client left), or
	// "backpressure" (downstream asked for a pause and no slot is free).
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded (%s); retry in %s", e.Reason, e.RetryAfter)
}

// RetryAfterSeconds is the Retry-After value of the error: RetryAfter
// rounded up to whole seconds, at least 1, so a client never returns
// before the wait it was told about.
func (e *OverloadError) RetryAfterSeconds() int {
	return max(1, int((e.RetryAfter+time.Second-1)/time.Second))
}

func (g *Gate) reject(reason string, retryAfter time.Duration) error {
	g.rejected[reason].Inc()
	if retryAfter <= 0 {
		retryAfter = g.queueWait
	}
	return &OverloadError{Reason: reason, RetryAfter: retryAfter}
}

func (g *Gate) admit() {
	g.admitted.Inc()
	g.inflight.Add(1)
}

// Acquire admits one request or returns an *OverloadError (the only error
// it returns). An admitted request must call Release exactly once when its
// work ends.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		g.admit()
		return nil
	default:
	}

	// No free slot. While downstream is pushing back, queuing more work on
	// its behalf only deepens the overload — shed immediately and tell the
	// client when the pressure window ends.
	if p := g.pressure(); p > 0 {
		return g.reject("backpressure", p)
	}
	if g.queueDepth <= 0 || g.waiting.Add(1) > int64(g.queueDepth) {
		if g.queueDepth > 0 {
			g.waiting.Add(-1)
		}
		return g.reject("queue_full", 0)
	}
	defer g.waiting.Add(-1)

	// Deadline-aware wait: never queue longer than the request could still
	// use. A request that would reach its deadline inside the queue is shed
	// as "deadline" rather than burning a queue slot.
	wait, reason := g.queueWait, "saturated"
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return g.reject("deadline", 0)
		}
		if remaining < wait {
			wait, reason = remaining, "deadline"
		}
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	start := time.Now()
	select {
	case g.sem <- struct{}{}:
		g.waitHist.Observe(time.Since(start).Seconds())
		g.admit()
		return nil
	case <-t.C:
		return g.reject(reason, 0)
	case <-ctx.Done():
		return g.reject("deadline", 0)
	}
}

// Release ends one admitted request's work, freeing its slot.
func (g *Gate) Release() {
	g.inflight.Add(-1)
	<-g.sem
}

// AdmissionHealth is the gate's block of a /healthz body.
type AdmissionHealth struct {
	Capacity   int   `json:"capacity"`
	QueueDepth int   `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	Waiting    int64 `json:"waiting"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	// BackpressureMS is the remaining backpressure window, 0 when calm.
	BackpressureMS int64 `json:"backpressure_ms,omitempty"`
}

// Health snapshots the gate's counters; they are the instruments /metrics
// scrapes, so the two views agree.
func (g *Gate) Health() AdmissionHealth {
	h := AdmissionHealth{
		Capacity:   cap(g.sem),
		QueueDepth: g.queueDepth,
		Inflight:   g.inflight.Value(),
		Waiting:    g.waiting.Value(),
		Admitted:   g.admitted.Value(),
	}
	for _, c := range g.rejected {
		h.Rejected += c.Value()
	}
	if p := g.pressure(); p > 0 {
		h.BackpressureMS = p.Milliseconds()
	}
	return h
}
