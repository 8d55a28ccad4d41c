package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"svqact/internal/detect"
	"svqact/internal/obs"
)

// countReads makes the clip loop's clock count its reads for the rest of
// the test.
func countReads(t *testing.T) *int {
	t.Helper()
	n, prev := new(int), since
	since = func(t0 time.Time) time.Duration {
		*n++
		return prev(t0)
	}
	t.Cleanup(func() { since = prev })
	return n
}

// TestUntracedRunReadsNoClock: a run with no trace attached never reads
// the clock, in the clip loop or out of it — a basic query stepped through
// the streaming API, and a relation CNF through RunCNF.
func TestUntracedRunReadsNoClock(t *testing.T) {
	reads := countReads(t)
	e, err := NewSVAQD(noisyModels(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := extTestVideoFrames(t, 5, 8_000)
	run, err := e.NewRun(context.Background(), v, Query{Objects: []string{"human", "car"}, Action: "jumping"})
	if err != nil {
		t.Fatal(err)
	}
	for run.Step() {
	}
	run.Result()
	if _, err := e.RunCNF(context.Background(), v, invariantCNFs()["relation"]); err != nil {
		t.Fatal(err)
	}
	if *reads != 0 {
		t.Fatalf("untraced runs read the clock %d times, want 0", *reads)
	}
}

// TestTracedRunReadsOncePerEvaluation: a traced run reads the clock once
// per evaluation and once more for its engine span, and its predicate spans
// split the clip loop, summing to at most the engine span.
func TestTracedRunReadsOncePerEvaluation(t *testing.T) {
	reads := countReads(t)
	for _, mk := range []func(detect.Models, Config) (*Engine, error){NewSVAQ, NewSVAQD} {
		e, err := mk(cascadeModels(5), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		evaluations := 0
		e.hooks = &testHooks{evaluated: func(Atom, int, int, *detect.Account) { evaluations++ }}
		v := extTestVideoFrames(t, 5, 8_000)
		trace := obs.NewTrace(obs.NewQueryID())
		run, err := e.NewRun(obs.WithTrace(context.Background(), trace), v, Query{Objects: []string{"human", "car"}, Action: "jumping"})
		if err != nil {
			t.Fatal(err)
		}
		*reads = 0
		for run.Step() {
		}
		if evaluations == 0 || *reads != evaluations {
			t.Fatalf("%s: %d clock reads in the loop for %d evaluations", e.Mode(), *reads, evaluations)
		}
		run.Result()
		run.Result() // spans are emitted once
		if *reads != evaluations+1 {
			t.Fatalf("%s: %d clock reads for %d evaluations and one engine span", e.Mode(), *reads, evaluations)
		}

		var engine, predicates float64
		spans := 0
		for _, sp := range trace.Snapshot().Spans {
			switch {
			case sp.Name == "engine.run":
				engine = sp.DurationMS
			case strings.HasPrefix(sp.Name, "predicate:"):
				predicates += sp.DurationMS
				spans++
			}
		}
		if spans != 3 || predicates <= 0 {
			t.Fatalf("%s: %d predicate spans summing to %v ms", e.Mode(), spans, predicates)
		}
		// Both sides are whole nanoseconds rendered in milliseconds; allow
		// the rounding of the float sum.
		if predicates > engine+1e-9 {
			t.Errorf("%s: predicate spans sum to %v ms, more than engine.run's %v ms", e.Mode(), predicates, engine)
		}
	}
}
