package rank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"svqact/internal/core"
	"svqact/internal/store"
	"svqact/internal/video"
)

// Next is NextContext without a deadline, as the iterator tests that predate
// the context parameter call it.
func (t *tbClip) Next() (top, btm store.Entry, hasTop, hasBtm, ok bool, err error) {
	return t.NextContext(context.Background())
}

// tbClipCase is one randomly drawn iterator input: the per-table rows, the
// scorer over them and the candidate sequences.
type tbClipCase struct {
	numClips int
	rows     [][]store.Entry
	scorer   tableScorer
	pq       video.IntervalSet
	scoreAll bool
}

// drawTBClipCase draws a case from r. Scores are quantised to two decimals
// over a narrow range so that equal full scores — ties in the best and worst
// order — are common; candidate clips may be missing from tables and the
// candidate sequences may reach past every table's last clip.
func drawTBClipCase(r *rand.Rand) tbClipCase {
	c := tbClipCase{numClips: 10 + r.Intn(110), scoreAll: r.Intn(2) == 0}
	nTables := 1 + r.Intn(4)
	levels := 2 + r.Intn(30) // distinct score values per table
	for ti := 0; ti < nTables; ti++ {
		present := 0.3 + 0.7*r.Float64()
		var rows []store.Entry
		for clip := 0; clip < c.numClips; clip++ {
			if r.Float64() < present {
				rows = append(rows, store.Entry{Clip: clip, Score: float64(r.Intn(levels)) / 100})
			}
		}
		c.rows = append(c.rows, rows)
	}
	if r.Intn(2) == 0 {
		c.scorer = &planScorer{c: ProductOfSums{}, toDeclared: r.Perm(nTables)}
	} else {
		// Deal the tables into one to nTables clauses, none empty.
		clauses := make([][]int, 1+r.Intn(nTables))
		for i, ti := range r.Perm(nTables) {
			ci := i
			if i >= len(clauses) {
				ci = r.Intn(len(clauses))
			}
			clauses[ci] = append(clauses[ci], ti)
		}
		c.scorer = cnfTableScorer{clauses: clauses}
	}
	var ivs []video.Interval
	for pos := r.Intn(5); pos < c.numClips+5; {
		l := 1 + r.Intn(8)
		ivs = append(ivs, video.Interval{Start: pos, End: pos + l - 1})
		pos += l + 1 + r.Intn(12)
	}
	c.pq = video.NewIntervalSet(ivs...)
	return c
}

func (c tbClipCase) tables(t testing.TB, st *store.Stats) []store.Table {
	t.Helper()
	out := make([]store.Table, len(c.rows))
	for i, rows := range c.rows {
		m, err := store.NewMemTable(fmt.Sprintf("t%d", i), rows)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = store.WithStats(m, st)
	}
	return out
}

// scorerCopy returns a scorer with its own scratch column, so the two
// iterators under comparison share no state.
func (c tbClipCase) scorerCopy() tableScorer {
	if p, ok := c.scorer.(*planScorer); ok {
		return &planScorer{c: p.c, toDeclared: p.toDeclared}
	}
	return c.scorer
}

// checkTBClipMatchesReference steps the iterator and the map-based reference
// it replaced through one case, with random Skip calls (inside, across and
// beyond the candidate sequences) between Next calls, and requires the same
// yields, rounds and table accesses after every step.
func checkTBClipMatchesReference(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	c := drawTBClipCase(r)
	var gotSt, wantSt store.Stats
	got, err := newTBClip(c.tables(t, &gotSt), c.scorerCopy(), c.pq, c.scoreAll)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefTBClip(c.tables(t, &wantSt), c.scorerCopy(), c.pq, c.scoreAll)
	if err != nil {
		t.Fatal(err)
	}
	type yield struct {
		top, btm           store.Entry
		hasTop, hasBtm, ok bool
		rounds, remaining  int
		sorted, random     int64
	}
	for step := 0; ; step++ {
		if r.Intn(3) == 0 {
			start := r.Intn(c.numClips + 20)
			skip := video.Interval{Start: start, End: start + r.Intn(10)}
			got.Skip(skip)
			want.Skip(skip)
		}
		var g, w yield
		g.top, g.btm, g.hasTop, g.hasBtm, g.ok, err = got.Next()
		if err != nil {
			t.Fatal(err)
		}
		w.top, w.btm, w.hasTop, w.hasBtm, w.ok, err = want.Next()
		if err != nil {
			t.Fatal(err)
		}
		g.rounds, g.remaining, g.sorted, g.random = got.rounds, got.remaining, gotSt.Sorted, gotSt.Random
		w.rounds, w.remaining, w.sorted, w.random = want.rounds, want.remaining, wantSt.Sorted, wantSt.Random
		if g != w {
			t.Fatalf("seed %d step %d (scoreAll=%v, %d tables, pq %v):\n got %+v\nwant %+v", seed, step, c.scoreAll, len(c.rows), c.pq, g, w)
		}
		// What topkRun reads when it fetches the winners' remaining clips.
		for _, iv := range c.pq.Intervals() {
			for clip := iv.Start; clip <= iv.End; clip++ {
				if got.done(clip) != want.processed[clip] {
					t.Fatalf("seed %d step %d: clip %d done = %v, reference processed = %v", seed, step, clip, got.done(clip), want.processed[clip])
				}
				gs, gok := got.candidate(clip)
				ws, wok := want.candidates[clip]
				if gok != wok || (gok && gs != ws) {
					t.Fatalf("seed %d step %d: clip %d candidate = %v,%v, reference %v,%v", seed, step, clip, gs, gok, ws, wok)
				}
			}
		}
		if !w.ok {
			return
		}
	}
}

func TestTBClipMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		checkTBClipMatchesReference(t, seed)
	}
}

func FuzzTBClipMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(checkTBClipMatchesReference)
}

// cancellingTable counts the accesses it serves and cancels a context when
// the shared sorted-access count reaches a limit.
type cancellingTable struct {
	store.Table
	acc *cancellingAccesses
}

type cancellingAccesses struct {
	cancelAt      int64
	cancel        context.CancelFunc
	sorted        int64
	sortedAtLimit int64 // sorted count when the context was cancelled
	randomAfter   int64 // random accesses since
}

func (c cancellingTable) SortedAt(i int) (store.Entry, error) {
	c.acc.sorted++
	if c.acc.sorted == c.acc.cancelAt {
		c.acc.cancel()
		c.acc.sortedAtLimit = c.acc.sorted
	}
	return c.Table.SortedAt(i)
}

func (c cancellingTable) ScoreOf(clip int) (float64, bool, error) {
	if c.acc.sortedAtLimit > 0 {
		c.acc.randomAfter++
	}
	return c.Table.ScoreOf(clip)
}

// TestTopKDeadlineInterruptsNext pins that a cancelled context stops a
// traversal inside one NextContext call: the candidate sequence sits in the
// middle of two long tables' score order, so no clip can be certified — and
// the iterator cannot return — for ~2,000 rounds. The context is cancelled a
// quarter of the way in; the query must give up within ctxCheckRounds rounds.
func TestTopKDeadlineInterruptsNext(t *testing.T) {
	const numClips = 4000
	cand := iv(1995, 2004)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acc := &cancellingAccesses{cancelAt: 2000, cancel: cancel}
	mkType := func(name string) *TypeIndex {
		entries := make([]store.Entry, numClips)
		for c := range entries {
			// Half the other clips score above the candidates and half
			// below, so both cursors reach them last.
			switch {
			case cand.Contains(c):
				entries[c] = store.Entry{Clip: c, Score: 1000}
			case c%2 == 0:
				entries[c] = store.Entry{Clip: c, Score: 2000 + float64(c)}
			default:
				entries[c] = store.Entry{Clip: c, Score: float64(c) / 10_000}
			}
		}
		tbl, err := store.NewMemTable(name, entries)
		if err != nil {
			t.Fatal(err)
		}
		return &TypeIndex{Table: cancellingTable{Table: tbl, acc: acc}, Seqs: video.NewIntervalSet(cand)}
	}
	ix := &Index{
		Name: "deadline", NumClips: numClips,
		Objects: map[string]*TypeIndex{"human": mkType("human")},
		Actions: map[string]*TypeIndex{"jumping": mkType("jumping")},
	}
	_, err := RVAQ(ctx, ix, core.Query{Objects: []string{"human"}, Action: "jumping"}, 1, Options{})
	var ie *core.InterruptedError
	if !errors.As(err, &ie) || !errors.Is(err, context.Canceled) {
		t.Fatalf("RVAQ under a cancelled context returned %v, want an InterruptedError wrapping context.Canceled", err)
	}
	if ie.Total != cand.Len() {
		t.Errorf("InterruptedError.Total = %d, want %d", ie.Total, cand.Len())
	}
	// A round reads one row from each end of each table.
	const tables = 2
	if further := acc.sorted - acc.sortedAtLimit; further > ctxCheckRounds*2*tables {
		t.Errorf("%d sorted accesses after the cancellation, want at most %d (%d rounds)", further, ctxCheckRounds*2*tables, ctxCheckRounds)
	}
	if acc.randomAfter != 0 {
		t.Errorf("%d random accesses after the cancellation, want none", acc.randomAfter)
	}
	if acc.sortedAtLimit == 0 {
		t.Fatal("the traversal ended before the cancellation point: the test no longer tests anything")
	}
}
