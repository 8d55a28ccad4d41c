package rank

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"svqact/internal/store"
)

// topkView is every Result field the traversal fills in.
type topkView struct {
	Sequences     []SeqResult
	Stats         store.Stats
	Rounds        int
	ClipsScored   int
	Truncated     bool
	ResidualUpper float64
}

func viewOf(res *Result) topkView {
	return topkView{res.Sequences, res.Stats, res.Rounds, res.ClipsScored, res.Truncated, res.ResidualUpper}
}

// checkTopkMatchesReference runs topkRun and the all-sequences traversal it
// replaced (refTopkRun) over one drawn index — basic or CNF scorer — at
// every k from 1 to two past the candidate count, with and without NoSkip
// and ApproxScores, and requires equal results. It returns how many of the
// runs skipped a candidate clip, so a caller can tell that the live set
// shrank somewhere.
func checkTopkMatchesReference(t *testing.T, seed int64) (skipped int) {
	r := rand.New(rand.NewSource(seed))
	c := drawTBClipCase(r)
	n := c.pq.NumIntervals()
	for _, opts := range []Options{{}, {NoSkip: true}, {ApproxScores: true}, {NoSkip: true, ApproxScores: true}} {
		opts = opts.withDefaults()
		for k := 1; k <= n+2; k++ {
			var got, want Result
			if err := topkRun(context.Background(), &got, c.tables(t, &got.Stats), c.scorerCopy(), opts, c.pq, k); err != nil {
				t.Fatal(err)
			}
			if err := refTopkRun(context.Background(), &want, c.tables(t, &want.Stats), c.scorerCopy(), opts, c.pq, k); err != nil {
				t.Fatal(err)
			}
			if g, w := viewOf(&got), viewOf(&want); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d k=%d %+v (%d tables, pq %v):\n got %+v\nwant %+v", seed, k, opts, len(c.rows), c.pq, g, w)
			}
			if !opts.NoSkip && !opts.ApproxScores && got.ClipsScored < c.pq.TotalLen() {
				skipped++
			}
		}
	}
	return skipped
}

func TestTopkMatchesReference(t *testing.T) {
	skipped := 0
	for seed := int64(0); seed < 400; seed++ {
		skipped += checkTopkMatchesReference(t, seed)
	}
	if skipped == 0 {
		t.Fatal("no traversal skipped a clip: the cases never shrink the live set")
	}
}

func FuzzTopkMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkTopkMatchesReference(t, seed) })
}
