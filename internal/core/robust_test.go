package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"svqact/internal/detect"
)

// faultyModels wraps the ideal models with deterministic fault injection.
func faultyModels(fc detect.FaultConfig) detect.Models {
	m := idealModels()
	m.Objects = detect.InjectObjectFaults(m.Objects, fc)
	m.Actions = detect.InjectActionFaults(m.Actions, fc)
	return m
}

var robustQuery = Query{Objects: []string{"car", "human"}, Action: "jumping"}

// TestTransientFaultsPreserveResults is the paper-level acceptance check of
// the retry machinery: a detector failing transiently on 20% of invocations
// must — with enough retry attempts — produce exactly the sequences of a
// clean run, with no clips flagged.
func TestTransientFaultsPreserveResults(t *testing.T) {
	v := testVideo(t, 17, 12_000)
	cfg := DefaultConfig()
	clean, err := newTestEngine(t, idealModels(), cfg).Run(context.Background(), v, robustQuery)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Retry = detect.RetryConfig{Attempts: 10} // zero BaseDelay: no backoff sleeps in-test
	faulty := faultyModels(detect.FaultConfig{TransientRate: 0.2, Seed: 99})
	res, err := newTestEngine(t, faulty, cfg).Run(context.Background(), v, robustQuery)
	if err != nil {
		t.Fatalf("20%% transient faults with retries should complete: %v", err)
	}
	if !res.Flagged.Empty() {
		t.Errorf("flagged clips %v; retries should absorb all transient faults", res.Flagged)
	}
	if res.Sequences.String() != clean.Sequences.String() {
		t.Errorf("sequences diverge under transient faults:\nclean  %v\nfaulty %v", clean.Sequences, res.Sequences)
	}
}

// TestPermanentFaultsSkipAndFlag: a low permanent-failure rate flags the
// affected clips but the run completes, and the outcome is deterministic.
func TestPermanentFaultsSkipAndFlag(t *testing.T) {
	v := testVideo(t, 17, 40_000)
	cfg := DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 2, BaseDelay: time.Microsecond}
	fc := detect.FaultConfig{PermanentRate: 0.0008, Seed: 4}

	run := func() *Result {
		res, err := newTestEngine(t, faultyModels(fc), cfg).Run(context.Background(), v, robustQuery)
		if err != nil {
			t.Fatalf("run should stay within the failure budget: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Flagged.Empty() {
		t.Fatal("permanent faults at this rate should flag at least one clip")
	}
	if a.Flagged.String() != b.Flagged.String() || a.Sequences.String() != b.Sequences.String() {
		t.Errorf("degraded outcome must be deterministic:\n%v vs %v\n%v vs %v",
			a.Flagged, b.Flagged, a.Sequences, b.Sequences)
	}
	// Flagged clips carry a negative indicator: none may appear in results.
	for _, iv := range a.Flagged.Intervals() {
		for c := iv.Start; c <= iv.End; c++ {
			if a.Sequences.Contains(c) {
				t.Errorf("flagged clip %d appears in result sequences", c)
			}
		}
	}
}

// TestPermanentFaultsExceedBudget: a high permanent-failure rate aborts with
// a structured DegradedError carrying partial progress.
func TestPermanentFaultsExceedBudget(t *testing.T) {
	v := testVideo(t, 17, 40_000)
	cfg := DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 2, BaseDelay: time.Microsecond}
	cfg.FailureBudget = 0.05
	faulty := faultyModels(detect.FaultConfig{PermanentRate: 0.02, Seed: 4})
	res, err := newTestEngine(t, faulty, cfg).Run(context.Background(), v, robustQuery)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if de.Flagged == 0 || de.Processed == 0 || de.Total == 0 || de.Budget != 0.05 {
		t.Errorf("degraded error fields incomplete: %+v", de)
	}
	var detErr *detect.DetectionError
	if !errors.As(err, &detErr) {
		t.Errorf("DegradedError should wrap a sample DetectionError, got %v", de.Err)
	}
	if res == nil {
		t.Fatal("degraded run must still return its partial result")
	}
	if res.Flagged.Empty() {
		t.Error("partial result should report the flagged clips")
	}
}

// TestCancellationMidQuery drives a streaming run step by step, cancels the
// context, and checks the partial-progress error.
func TestCancellationMidQuery(t *testing.T) {
	v := testVideo(t, 3, 60_000)
	ctx, cancel := context.WithCancel(context.Background())
	e := newTestEngine(t, idealModels(), DefaultConfig())
	run, err := e.NewRun(ctx, v, robustQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !run.Step() {
			t.Fatalf("stream exhausted after %d clips", i)
		}
	}
	cancel()
	if run.Step() {
		t.Fatal("Step must observe cancellation")
	}
	var ie *InterruptedError
	if !errors.As(run.Err(), &ie) {
		t.Fatalf("Err = %v, want *InterruptedError", run.Err())
	}
	if ie.Processed != 5 || ie.Total != run.NumClips() {
		t.Errorf("progress = %d/%d, want 5/%d", ie.Processed, ie.Total, run.NumClips())
	}
	if !errors.Is(run.Err(), context.Canceled) {
		t.Error("InterruptedError must unwrap to context.Canceled")
	}
	res := run.Result()
	if res.Sequences.TotalLen() > 5 {
		t.Errorf("partial result covers %d clips, only 5 processed", res.Sequences.TotalLen())
	}
}

// TestDeadlineExpiryReturnsPartialResult: Run with an expired deadline stops
// immediately with an InterruptedError unwrapping to DeadlineExceeded.
func TestDeadlineExpiryReturnsPartialResult(t *testing.T) {
	v := testVideo(t, 3, 60_000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e := newTestEngine(t, idealModels(), DefaultConfig())
	res, err := e.Run(ctx, v, robustQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded via InterruptedError", err)
	}
	if res == nil || !res.Sequences.Empty() {
		t.Error("expired deadline should yield an empty partial result")
	}
}

// TestRunCNFInterrupted: the extended path honours cancellation too.
func TestRunCNFInterrupted(t *testing.T) {
	v := testVideo(t, 3, 60_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newTestEngine(t, idealModels(), DefaultConfig())
	q := CNF{Clauses: []Clause{{Atoms: []Atom{ActionAtom("jumping")}}}}
	res, err := e.RunCNF(ctx, v, q)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InterruptedError", err)
	}
	if res == nil {
		t.Fatal("interrupted RunCNF must return its partial result")
	}
}

// TestRunCNFDegrades: the extended path enforces the failure budget.
func TestRunCNFDegrades(t *testing.T) {
	v := testVideo(t, 17, 40_000)
	cfg := DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 2, BaseDelay: time.Microsecond}
	cfg.FailureBudget = 0.05
	e := newTestEngine(t, faultyModels(detect.FaultConfig{PermanentRate: 0.02, Seed: 4}), cfg)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ObjectAtom("car"), ObjectAtom("human")}},
		{Atoms: []Atom{ActionAtom("jumping")}},
	}}
	res, err := e.RunCNF(context.Background(), v, q)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if res == nil || res.Flagged.Empty() {
		t.Error("degraded RunCNF must return a partial result with flagged clips")
	}
}

// TestEvaluateTypesInterrupted: ingestion-mode evaluation honours ctx.
func TestEvaluateTypesInterrupted(t *testing.T) {
	v := testVideo(t, 3, 60_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newTestEngine(t, idealModels(), DefaultConfig())
	_, _, err := e.EvaluateTypes(ctx, v, []string{"car"}, []string{"jumping"})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InterruptedError", err)
	}
}

// TestConfigValidatesFailureKnobs: the new knobs are validated.
func TestConfigValidatesFailureKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureBudget = 1.5
	if _, err := NewSVAQD(idealModels(), cfg); err == nil {
		t.Error("failure budget > 1 should be rejected")
	}
	cfg = DefaultConfig()
	cfg.FailureBudget = math.NaN()
	if _, err := NewSVAQD(idealModels(), cfg); err == nil {
		t.Error("NaN failure budget should be rejected")
	}
	cfg = DefaultConfig()
	cfg.Retry.Attempts = -2
	if _, err := NewSVAQD(idealModels(), cfg); err == nil {
		t.Error("negative retry attempts should be rejected")
	}
	// Zero values for the new knobs default rather than fail, so configs
	// written before the failure model keep working.
	cfg = DefaultConfig()
	cfg.Retry = detect.RetryConfig{}
	cfg.FailureBudget = 0
	if _, err := NewSVAQD(idealModels(), cfg); err != nil {
		t.Errorf("legacy config without failure knobs should default cleanly: %v", err)
	}
}

func newTestEngine(t *testing.T, m detect.Models, cfg Config) *Engine {
	t.Helper()
	e, err := NewSVAQD(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
