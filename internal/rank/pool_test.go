package rank

import (
	"context"
	"fmt"
	"runtime/debug"
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
	// these queries allocated 415 and 508 objects; they now take 36 and 64,
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

// TestTopKAllocsSteadyStateAcrossCandidates pins that a warm ranked query's
// allocations do not grow with the candidate count, and that the traversal
// itself allocates only its answer. The round columns, the live set and the
// permutation come from the pooled scratch, the candidate sequences are
// built with a constant number of allocations, and an untraced query boxes
// no span attribute. An append that grows with the candidates makes the
// 1,000-candidate query allocate more than the 10-candidate one; a column
// sized per query with a plain make adds one to topkRun's three.
func TestTopKAllocsSteadyStateAcrossCandidates(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	cnf := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("car"), core.ObjectAtom("human")}},
	}}
	// A collection empties the scratch pool, and the larger query collects
	// more often; what is measured is a warm query, so none runs meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[string][]float64{}
	for _, n := range []int{10, 1000} {
		lens := make([]int, n)
		for i := range lens {
			lens[i] = 1 + i%5
		}
		ix := buildIndex(t, 5*n, 31, lens)
		for _, c := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"RVAQ", func() (*Result, error) { return RVAQ(ctx, ix, testQuery, 3, Options{}) }},
			{"RVAQCNF", func() (*Result, error) { return RVAQCNF(ctx, ix, cnf, 3, Options{}) }},
		} {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Candidates != n {
				t.Fatalf("%s over %d sequences has %d candidates", c.name, n, res.Candidates)
			}
			allocs[c.name] = append(allocs[c.name], testing.AllocsPerRun(10, func() {
				if _, err := c.run(); err != nil {
					t.Fatal(err)
				}
			}))
		}

		// The traversal alone, at k = 1, allocates only its answer: the
		// winner slice, the one-entry Sequences and the interface that
		// boxes it for sort.Slice.
		pq, err := ix.Pq(testQuery)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		tables, scorer, _, err := ix.queryTables(testQuery, &res.Stats, ProductOfSums{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{}.withDefaults()
		if got := testing.AllocsPerRun(10, func() {
			res.Sequences = nil
			if err := topkRun(ctx, &res, tables, scorer, opts, pq, 1); err != nil {
				t.Fatal(err)
			}
		}); got != 3 {
			t.Errorf("a warm topkRun over %d candidates allocates %.0f objects, want 3 (the answer)", n, got)
		}
	}
	for name, a := range allocs {
		if a[0] != a[1] {
			t.Errorf("a warm %s query allocates %.0f objects over 10 candidates and %.0f over 1,000, want the same", name, a[0], a[1])
		}
	}
}
