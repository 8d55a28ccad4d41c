package httpd

import (
	"context"
	"errors"
	"testing"
	"time"

	"svqact/internal/obs"
	"svqact/internal/testenv"
)

func testGate(maxC, depth int, wait time.Duration, pressure func() time.Duration) *Gate {
	return NewGate(obs.NewRegistry(), "test_admission", maxC, depth, wait, pressure)
}

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

func TestAdmissionFastPathAndRelease(t *testing.T) {
	g := testGate(1, -1, 50*time.Millisecond, nil)
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	g.Release()
	err = g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.Release()
	if got := g.admitted.Value(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
	if got := g.inflight.Value(); got != 0 {
		t.Fatalf("inflight = %d after release, want 0", got)
	}
}

// TestAdmissionAllocsSteadyState: an admitted request that finds a free
// slot costs no allocation and no timer.
func TestAdmissionAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := testGate(1, 1, time.Second, nil)
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		g.Release()
	}); n != 0 {
		t.Fatalf("fast path allocates %v times per request, want 0", n)
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	g := testGate(1, -1, 50*time.Millisecond, nil)
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	err = g.Acquire(context.Background())
	over := mustOverload(t, err, "queue_full")
	if over.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the queue wait", over.RetryAfter)
	}
	if got := g.rejected["queue_full"].Value(); got != 1 {
		t.Fatalf("rejected{queue_full} = %d, want 1", got)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	g := testGate(1, 1, 5*time.Second, nil)
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		err := g.Acquire(context.Background())
		if err == nil {
			g.Release()
		}
		got <- err
	}()
	// Wait for the second request to be queued, then confirm a third is
	// shed (queue depth 1) before freeing the slot.
	deadline := time.Now().Add(2 * time.Second)
	for g.waiting.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	err = g.Acquire(context.Background())
	mustOverload(t, err, "queue_full")
	g.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
}

func TestAdmissionSaturatedAfterQueueWait(t *testing.T) {
	g := testGate(1, 1, 20*time.Millisecond, nil)
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	start := time.Now()
	err = g.Acquire(context.Background())
	mustOverload(t, err, "saturated")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("saturated shed after %v, want >= the queue wait", elapsed)
	}
}

func TestAdmissionDeadlineAware(t *testing.T) {
	g := testGate(1, 1, 10*time.Second, nil)
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()

	// A deadline shorter than the queue wait bounds the queue time: the
	// request is shed as "deadline" instead of sitting out 10s.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = g.Acquire(ctx)
	mustOverload(t, err, "deadline")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline shed took %v; the full queue wait was not skipped", elapsed)
	}

	// An already-expired deadline is shed immediately.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err = g.Acquire(expired)
	mustOverload(t, err, "deadline")
}

func TestAdmissionBackpressureSheds(t *testing.T) {
	window := 700 * time.Millisecond
	g := testGate(1, 4, 5*time.Second, func() time.Duration { return window })
	err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("pressure must not shed while a slot is free: %v", err)
	}
	err = g.Acquire(context.Background())
	over := mustOverload(t, err, "backpressure")
	if over.RetryAfter != window {
		t.Fatalf("RetryAfter = %v, want the pressure window %v", over.RetryAfter, window)
	}
	g.Release()
	// Slot free again: pressure alone never sheds.
	err = g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("free-slot acquire under pressure: %v", err)
	}
	g.Release()
}
