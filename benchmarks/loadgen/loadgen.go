// Package loadgen drives requests at a server from one process over a fixed
// number of connections, in the two ways independent users and waiting
// callers behave:
//
// Open loop: requests are due on a seeded Poisson schedule regardless of how
// the server is doing. Each latency is timed from the request's due time, not
// from when it was actually sent, so a stall charges every request queued
// behind it (no coordinated omission). How late the generator itself ran is
// reported separately as lag.
//
// Closed loop: each client sends its next request when the previous reply
// arrives, so a slower server receives less load; completions per second is
// the capacity measure.
package loadgen

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op performs the i-th request of a phase and reports whether it succeeded:
// a transport error, a refusal or a wrong answer is a failure.
type Op func(ctx context.Context, i int) bool

// Schedule returns the due offsets of n arrivals of a Poisson process at rate
// requests per second, from seed: the same seed gives the same schedule. The
// count is fixed and the duration varies (n/rate on average), so that every
// run sends the same number of requests.
func Schedule(seed uint64, rate float64, n int) []time.Duration {
	if rate <= 0 || n <= 0 {
		return nil
	}
	r := rand.New(rand.NewPCG(seed, 0x5c4ed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// OpenResult is one open-loop phase.
type OpenResult struct {
	// LatencyMS holds one entry per scheduled request, timed from its due
	// time; failed requests are included (they took that long to fail).
	LatencyMS []float64
	// LagMS is how late the generator woke for each request, beyond any
	// wait for a free connection: send time minus the later of the due time
	// and the moment the sending worker became free.
	LagMS  []float64
	Failed int
	// Missed counts requests that failed or whose due-time latency exceeded
	// the limit.
	Missed  int
	Elapsed time.Duration
}

// Open sends one request per entry of due over conns workers (one
// connection each). Workers take requests in schedule order; when all are
// busy the next request starts late and its wait is part of its latency.
func Open(ctx context.Context, conns int, due []time.Duration, limit time.Duration, op Op) OpenResult {
	res := OpenResult{LatencyMS: make([]float64, len(due)), LagMS: make([]float64, len(due))}
	var next, failed, missed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				free := time.Now()
				dueAt := start.Add(due[i])
				if wait := dueAt.Sub(free); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := op(ctx, i)
				lat := time.Since(dueAt)
				ready := dueAt
				if free.After(ready) {
					ready = free
				}
				res.LatencyMS[i] = ms(lat)
				res.LagMS[i] = ms(sent.Sub(ready))
				if !ok {
					failed.Add(1)
				}
				if !ok || lat > limit {
					missed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Failed = int(failed.Load())
	res.Missed = int(missed.Load())
	done := int(next.Load())
	if done > len(due) {
		done = len(due)
	}
	res.LatencyMS, res.LagMS = res.LatencyMS[:done], res.LagMS[:done]
	return res
}

// ClosedResult is one closed-loop phase.
type ClosedResult struct {
	Completed int
	Failed    int
	LatencyMS []float64
	Elapsed   time.Duration
}

// QPS is completions per second of the phase.
func (c ClosedResult) QPS() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(c.Completed) / c.Elapsed.Seconds()
}

// Closed runs clients workers for d; each sends its next request as soon as
// the previous one returns. Request indexes are handed out in order across
// the workers, so the sequence of statements is the same on every run.
func Closed(ctx context.Context, clients int, d time.Duration, op Op) ClosedResult {
	var next, failed atomic.Int64
	perWorker := make([][]float64, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				if !op(ctx, i) {
					failed.Add(1)
				}
				perWorker[w] = append(perWorker[w], ms(time.Since(t0)))
			}
		}(w)
	}
	wg.Wait()
	res := ClosedResult{Elapsed: time.Since(start), Failed: int(failed.Load())}
	for _, l := range perWorker {
		res.LatencyMS = append(res.LatencyMS, l...)
	}
	res.Completed = len(res.LatencyMS)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Quantile returns the q-quantile (0..1) of values by linear interpolation
// between order statistics; values need not be sorted. It returns NaN for an
// empty input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Median is Quantile(values, 0.5).
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// tailPerMille are the tail percentiles a report may quote, ascending, in
// thousandths so the sample arithmetic below is exact.
var tailPerMille = []int{900, 950, 990, 999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// quoted: below that the figure is one or two outliers, not a tail.
const minBeyond = 10

// HighestSupported returns the highest tail percentile (as a fraction) that
// still has at least ten of n samples beyond it, or 0 when even p90 does
// not (fewer than a hundred samples).
func HighestSupported(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= minBeyond*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}
