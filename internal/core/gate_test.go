package core

import (
	"context"
	"math/rand/v2"
	"sort"
	"testing"

	"svqact/internal/testenv"
)

// refQuantile is the gate's quantile as it was computed before the
// histogram: copy the ring, sort it, take index ⌊q·n⌋ clamped to the last.
func refQuantile(ring []int, q float64) int {
	sorted := append([]int(nil), ring...)
	sort.Ints(sorted)
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestCountRingMatchesSort drives one countRing — reset between streams, as
// a pooled predState's is — through random count streams over windows of 2
// to 50 clips and checks, before every push, that it is ready exactly when
// full and that its quantile equals the sorted ring's at quantiles 0,
// 0.6 and 1 (the idx >= n clamp).
func TestCountRingMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	var g countRing
	for stream := 0; stream < 400; stream++ {
		n := 2 + r.IntN(49)
		maxCount := []int{0, 1, 5, 50}[r.IntN(4)]
		g.reset(n, maxCount)
		var pushed []int
		for k := 0; k < 3*n+r.IntN(n); k++ {
			for _, q := range []float64{0, 0.6, 1} {
				got, ready := g.quantile(q)
				if full := len(pushed) >= n; ready != full {
					t.Fatalf("stream %d (n=%d) after %d pushes: ready %v, want %v", stream, n, len(pushed), ready, full)
				}
				if ready {
					if want := refQuantile(pushed[len(pushed)-n:], q); got != want {
						t.Fatalf("stream %d (n=%d, max %d) after %d pushes: q=%v quantile %d, sorted ring says %d",
							stream, n, maxCount, len(pushed), q, got, want)
					}
				}
			}
			// Mostly background, sometimes an event's full count.
			c := r.IntN(min(maxCount, 2) + 1)
			if r.IntN(8) == 0 {
				c = maxCount
			}
			g.push(c)
			pushed = append(pushed, c)
		}
	}
}

// TestGateQuantileInPooledRuns steps real SVAQD evaluations — one pooled
// Run after another over videos of different lengths, with the atoms'
// kinds swapping slots so a reused predState's ring and histogram change
// size — and checks every predicate's gate against the sorted ring after
// every clip.
func TestGateQuantileInPooledRuns(t *testing.T) {
	eng, err := NewSVAQD(noisyModels(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	orders := [][]Atom{
		{ObjectAtom("human"), ObjectAtom("car"), ActionAtom("jumping")},
		{ActionAtom("jumping"), ObjectAtom("human")},
		{ObjectAtom("car"), ActionAtom("jumping"), ObjectAtom("human")},
	}
	reused, checked := 0, 0
	var last *runScratch
	for i, frames := range []int{3000, 5200, 2600, 4100, 3550, 2950} {
		v := testVideo(t, int64(40+i), frames)
		atoms := orders[i%len(orders)]
		r, err := eng.bind(context.Background(), v, len(atoms))
		if err != nil {
			t.Fatal(err)
		}
		if r.scratch == last {
			reused++
		}
		last = r.scratch
		r.everyClip = true // every clip is sampled and feeds the gate
		for _, a := range atoms {
			if _, err := r.addClause(a); err != nil {
				t.Fatal(err)
			}
		}
		r.start(nil)
		for r.Step() {
			for _, ps := range r.preds {
				got, ready := ps.recent.quantile(nullQuantile)
				if ready {
					if want := refQuantile(ps.recent.ring, nullQuantile); got != want {
						t.Fatalf("video %d clip %d %s: gate quantile %d, sorted ring says %d", i, r.Processed(), ps.name, got, want)
					}
					checked++
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		r.release()
	}
	if checked == 0 {
		t.Fatal("the gate never filled: nothing was checked")
	}
	if reused == 0 && !testenv.RaceEnabled { // the race detector drops pooled items at random
		t.Fatal("no run reused a pooled scratch: the pooled case was not exercised")
	}
}
