package loadgen

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := HighestSupported(c.n); got != c.want {
			t.Errorf("HighestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.125: 1.5} {
		if got := Quantile(v, q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !reflect.DeepEqual(v, []float64{4, 1, 3, 2, 5}) {
		t.Error("Quantile reordered its input")
	}
}

func TestScheduleIsDeterminedBySeed(t *testing.T) {
	a, b := Schedule(7, 100, 500), Schedule(7, 100, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, Schedule(8, 100, 500)) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 500 {
		t.Fatalf("schedule holds %d arrivals, want 500", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ordered at %d", i)
		}
	}
	// 500 arrivals at 100/s take 5 s on average; the sum of 500 exponential
	// gaps is within a fifth of that with overwhelming probability.
	if end := a[len(a)-1]; end < 4*time.Second || end > 6*time.Second {
		t.Errorf("500 arrivals at 100/s end at %v", end)
	}
}

// A server that stalls once must inflate the due-time latency of the
// requests queued behind the stall, not only of the request that hit it.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const n, gap, stall = 40, 5 * time.Millisecond, 200 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var mu sync.Mutex
	stalled := false
	op := func(_ context.Context, i int) bool {
		mu.Lock()
		first := !stalled && i == 5
		if first {
			stalled = true
		}
		mu.Unlock()
		if first {
			time.Sleep(stall)
		}
		return true
	}
	res := Open(context.Background(), 1, due, time.Second, op)
	if len(res.LatencyMS) != n {
		t.Fatalf("%d latencies, want %d", len(res.LatencyMS), n)
	}
	// Request 6 was due 5 ms after request 5 and waited out nearly the
	// whole stall on the single connection; so did the ones after it, each
	// 5 ms less, until the backlog cleared.
	for _, i := range []int{6, 10, 20} {
		want := ms(stall - time.Duration(i-5)*gap)
		if res.LatencyMS[i] < 0.8*want {
			t.Errorf("request %d: latency %.1f ms from its due time, want about %.0f ms (coordinated omission?)", i, res.LatencyMS[i], want)
		}
	}
	if res.LatencyMS[2] > 50 {
		t.Errorf("request 2, before the stall, took %.1f ms", res.LatencyMS[2])
	}
	// The generator itself was never late: every delay was a busy
	// connection, which lag excludes.
	if p := Quantile(res.LagMS, 0.99); p > 20 {
		t.Errorf("lag p99 %.1f ms: connection waits are counted as generator lag", p)
	}
}

func TestOpenCountsFailuresAndMisses(t *testing.T) {
	due := Schedule(1, 2000, 50)
	res := Open(context.Background(), 2, due, time.Hour, func(_ context.Context, i int) bool { return i%10 != 0 })
	if res.Failed != 5 || res.Missed != 5 {
		t.Errorf("failed %d missed %d, want 5 and 5", res.Failed, res.Missed)
	}
}

func TestClosedHandsOutIndexesInOrder(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	res := Closed(context.Background(), 2, 30*time.Millisecond, func(_ context.Context, i int) bool {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return true
	})
	if res.Completed == 0 || res.Completed != len(seen) {
		t.Fatalf("completed %d, distinct indexes %d", res.Completed, len(seen))
	}
	for i := 0; i < res.Completed; i++ {
		if !seen[i] {
			t.Fatalf("index %d skipped", i)
		}
	}
	if res.QPS() <= 0 {
		t.Error("no throughput")
	}
}
