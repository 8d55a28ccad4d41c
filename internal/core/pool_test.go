package core

import (
	"context"
	"fmt"
	"testing"

	"svqact/internal/testenv"
	"svqact/internal/video"
)

// snapshotResult renders everything a caller can observe about a result, so
// two runs can be compared for exact equality.
func snapshotResult(res *Result) string {
	flat := *res
	flat.Plan = nil // compare the report by value, not by pointer identity
	return fmt.Sprintf("%+v|plan=%+v", flat, res.Plan)
}

// TestPooledRunResultsUnaliased is the cross-run aliasing regression test
// for the scratch pool: a caller that mutates everything reachable from a
// returned Result — including the interval slices Intervals() exposes by
// reference — must not be able to change what the next run returns.
func TestPooledRunResultsUnaliased(t *testing.T) {
	v := testVideo(t, 7, 4000)
	eng, err := NewSVAQD(noisyModels(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Objects: []string{"human", "car"}, Action: "jumping"}

	first, err := eng.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotResult(first)

	// Clobber every mutable surface of the first result.
	junk := video.Interval{Start: -99, End: -98}
	for i := range first.Sequences.Intervals() {
		first.Sequences.Intervals()[i] = junk
	}
	for i := range first.Flagged.Intervals() {
		first.Flagged.Intervals()[i] = junk
	}
	for i := range first.Predicates {
		ps := &first.Predicates[i]
		ps.Name = "clobbered"
		ps.Background = -1
		ps.Critical = -1
		for j := range ps.Clips.Intervals() {
			ps.Clips.Intervals()[j] = junk
		}
		for j := range ps.RawClips.Intervals() {
			ps.RawClips.Intervals()[j] = junk
		}
	}
	// (Result.Query deliberately shares the caller's own Objects slice — the
	// query is caller-owned input, not pooled state — so it is not mutated
	// here.)

	second, err := eng.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotResult(second); got != want {
		t.Errorf("second run changed after mutating the first run's result:\n first: %s\nsecond: %s", want, got)
	}
}

// TestRunAllocsSteadyState bounds the per-video allocation count of a warm
// engine — the property the scratch pool exists to provide — for a basic
// conjunction and for an OR-group (the pool holds the clause table too). The
// bound has slack for noise but fails loudly if the hot path regresses to
// per-clip or per-frame allocation.
func TestRunAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := testVideo(t, 11, 4000)
	eng, err := NewSVAQD(noisyModels(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Objects: []string{"human", "car"}, Action: "jumping"}
	orGroup := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
		{Atoms: []Atom{ObjectAtom("human")}},
	}}
	for name, run := range map[string]func() (*Result, error){
		"conjunction": func() (*Result, error) { return eng.Run(ctx, v, q) },
		"or-group":    func() (*Result, error) { return eng.RunCNF(ctx, v, orGroup) },
	} {
		// Warm the pool, the critical-value grid and the planner.
		for i := 0; i < 3; i++ {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		})
		// A 4000-frame video spans ~133 clips; the steady-state run should
		// allocate far below one heap object per clip (result
		// materialisation, spans and the plan report are the remaining
		// allocators).
		const maxAllocs = 120
		t.Logf("%s: %.0f allocs/video", name, allocs)
		if allocs > maxAllocs {
			t.Errorf("steady-state %s allocates %.0f objects/video, want <= %d", name, allocs, maxAllocs)
		}
	}
}
