package rank

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestTopKLowerBound(t *testing.T) {
	bs := []Bounds{
		{Lo: 5, Up: 9},
		{Lo: 1, Up: 2},
		{Lo: 7, Up: 7, Exact: true},
		{Lo: 3, Up: 8},
	}
	cases := []struct {
		k    int
		want float64
	}{
		{1, 7}, {2, 5}, {3, 3}, {4, 1},
	}
	for _, c := range cases {
		if got := TopKLowerBound(bs, c.k); got != c.want {
			t.Errorf("TopKLowerBound(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if got := TopKLowerBound(bs, 5); !math.IsInf(got, -1) {
		t.Errorf("k beyond len = %v, want -Inf", got)
	}
	if got := TopKLowerBound(nil, 1); !math.IsInf(got, -1) {
		t.Errorf("empty = %v, want -Inf", got)
	}
}

// TestKthLargestMatchesSort holds the selection behind Blo_K to a full sort,
// on columns with many repeated values (sequences at equal bounds are the
// norm early in a traversal) and the infinities an unbounded top produces.
func TestKthLargestMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+r.Intn(60))
		levels := 1 + r.Intn(8)
		for i := range xs {
			switch xs[i] = float64(r.Intn(levels)); r.Intn(20) {
			case 0:
				xs[i] = math.Inf(1)
			case 1:
				xs[i] = math.Inf(-1)
			}
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		k := 1 + r.Intn(len(xs))
		if got, want := kthLargest(slices.Clone(xs), k), sorted[len(xs)-k]; got != want {
			t.Fatalf("kthLargest(%v, %d) = %v, want %v", xs, k, got, want)
		}
	}
}

func TestSeparated(t *testing.T) {
	// Top-2 separated: third upper (4) below second lower (5).
	sep := []Bounds{{Lo: 8, Up: 9}, {Lo: 5, Up: 6}, {Lo: 1, Up: 4}}
	idx, ok := Separated(sep, 2)
	if !ok || len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("separated case: idx=%v ok=%v", idx, ok)
	}
	// Overlap: third upper (5.5) above second lower (5).
	overlap := []Bounds{{Lo: 8, Up: 9}, {Lo: 5, Up: 6}, {Lo: 1, Up: 5.5}}
	if _, ok := Separated(overlap, 2); ok {
		t.Error("overlapping bounds reported separated")
	}
	// Fewer candidates than k: trivially separated, all returned.
	idx, ok = Separated(sep, 7)
	if !ok || len(idx) != 3 {
		t.Errorf("k > len: idx=%v ok=%v", idx, ok)
	}
}

func TestSeqResultBoundsRoundTrip(t *testing.T) {
	sr := SeqResult{Seq: iv(3, 7), Lower: 2.5, Upper: 4.5}
	b := sr.Bounds()
	if b.Seq != sr.Seq || b.Lo != 2.5 || b.Up != 4.5 || b.Exact {
		t.Errorf("bounds = %+v", b)
	}
	if b.Mid() != 3.5 {
		t.Errorf("mid = %v, want 3.5", b.Mid())
	}
	b.Exact, b.Lo, b.Up = true, 4, 4
	if b.Mid() != 4 {
		t.Errorf("exact mid = %v, want 4", b.Mid())
	}
}

// TestResidualUpperCoversOmitted: the residual upper bound reported by a
// truncated top-k run must dominate the exact score of every omitted
// candidate — the guarantee the cluster coordinator's shard pruning relies
// on.
func TestResidualUpperCoversOmitted(t *testing.T) {
	ix := buildIndex(t, 120, 7, []int{4, 3, 5, 2, 6, 3, 4})
	full, err := RVAQ(context.Background(), ix, testQuery, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatalf("k = candidates run reports truncation (residual %v)", full.ResidualUpper)
	}
	exact := map[int]float64{} // sequence start -> exact score
	for _, sr := range full.Sequences {
		if !sr.Exact {
			t.Fatalf("full run produced inexact score for %v", sr.Seq)
		}
		exact[sr.Seq.Start] = sr.Lower
	}

	for k := 1; k < 7; k++ {
		res, err := RVAQ(context.Background(), ix, testQuery, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatalf("k=%d of 7 candidates not marked truncated", k)
		}
		returned := map[int]bool{}
		for _, sr := range res.Sequences {
			returned[sr.Seq.Start] = true
		}
		for start, score := range exact {
			if !returned[start] && score > res.ResidualUpper+1e-9 {
				t.Errorf("k=%d: omitted sequence @%d scores %v above residual upper %v",
					k, start, score, res.ResidualUpper)
			}
		}
	}
}
