package rank

import (
	"context"
	"fmt"
	"testing"

	"svqact/internal/core"
	"svqact/internal/testenv"
	"svqact/internal/video"
)

// snapshotTopK renders everything a caller can observe about a top-k result.
func snapshotTopK(res *Result) string {
	flat := *res
	flat.Plan = nil // compare the report by value, not by pointer identity
	return fmt.Sprintf("%+v|plan=%+v", flat, res.Plan)
}

// TestTopKResultsUnaliased is the cross-query aliasing regression test for
// the rank-side scratch pool: mutating everything reachable from a returned
// Result must not change what the next identical query returns.
func TestTopKResultsUnaliased(t *testing.T) {
	ix, _ := ingestedTestIndex(t, 30_000, 23)
	q := core.Query{Objects: []string{"human"}, Action: "jumping"}

	first, err := RVAQ(context.Background(), ix, q, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotTopK(first)

	for i := range first.Sequences {
		first.Sequences[i] = SeqResult{Seq: video.Interval{Start: -99, End: -98}, Lower: -1, Upper: -1}
	}
	first.Stats.Sorted = -1
	first.Stats.Random = -1
	if first.Plan != nil {
		first.Plan.Order = append(first.Plan.Order[:0], "clobbered")
	}

	second, err := RVAQ(context.Background(), ix, q, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotTopK(second); got != want {
		t.Errorf("second query changed after mutating the first query's result:\n first: %s\nsecond: %s", want, got)
	}
}

// TestTopKAllocsSteadyState bounds the allocation count of a warm ranked
// top-k query, basic and CNF. The pooled scratch — the iterator's per-clip
// state and heaps, the sequence bookkeeping, the round vectors — keeps the
// traversal out of the allocator; what remains is per-query setup (candidate
// sequences, stats-wrapped table handles, the plan report) and result
// assembly.
func TestTopKAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ix, _ := ingestedTestIndex(t, 30_000, 29)
	ctx := context.Background()
	basic := core.Query{Objects: []string{"human"}, Action: "jumping"}
	either := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ActionAtom("talking")}},
		{Atoms: []core.Atom{core.ObjectAtom("human")}},
	}}
	// The traversals touch hundreds of clips across dozens of rounds. With
	// the map-based iterator and one heap object per candidate sequence
	// these queries allocated 415 and 508 objects; they now take 49 and 97,
	// and a per-round or per-clip allocation pushes either well past its
	// bound.
	for _, c := range []struct {
		name      string
		run       func() (*Result, error)
		maxAllocs float64
	}{
		{"RVAQ", func() (*Result, error) { return RVAQ(ctx, ix, basic, 3, Options{}) }, 64},
		{"RVAQCNF", func() (*Result, error) { return RVAQCNF(ctx, ix, either, 3, Options{}) }, 128},
	} {
		for i := 0; i < 3; i++ {
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.maxAllocs {
			t.Errorf("steady-state %s allocates %.0f objects/query, want <= %.0f", c.name, allocs, c.maxAllocs)
		}
	}
}
