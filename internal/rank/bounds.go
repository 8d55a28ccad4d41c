package rank

import (
	"cmp"
	"math"
	"slices"

	"svqact/internal/video"
)

// Bounds brackets one candidate sequence's score: Lo <= score <= Up, with
// Lo == Up when Exact. This is the unit of RVAQ's Equation 15 bookkeeping,
// exported so the per-process traversal, the cluster coordinator's
// distributed merge and the tests all share one definition instead of each
// keeping a closure-local copy.
type Bounds struct {
	Seq video.Interval `json:"seq"`
	Lo  float64        `json:"lo"`
	Up  float64        `json:"up"`
	// Exact marks a fully scored sequence (every clip processed).
	Exact bool `json:"exact,omitempty"`
}

// Mid returns the exact score when known, otherwise the midpoint of the
// bounds — the same convention SeqResult.Score uses.
func (b Bounds) Mid() float64 {
	if b.Exact {
		return b.Lo
	}
	return (b.Lo + b.Up) / 2
}

// Bounds converts a ranked result sequence back into its score bounds.
func (s SeqResult) Bounds() Bounds {
	return Bounds{Seq: s.Seq, Lo: s.Lower, Up: s.Upper, Exact: s.Exact}
}

// TopKLowerBound returns Blo_K — the k-th largest lower bound across bs,
// the pruning threshold of Equation 15: any sequence (or shard) whose best
// possible upper bound falls below it can never reach the top-k. With fewer
// than k bounds every candidate may still win, so the threshold is -Inf.
func TopKLowerBound(bs []Bounds, k int) float64 {
	if k <= 0 || len(bs) < k {
		return math.Inf(-1)
	}
	los := make([]float64, len(bs))
	for i, b := range bs {
		los[i] = b.Lo
	}
	return kthLargest(los, k)
}

// kthLargest returns the k-th largest of xs (1 <= k <= len(xs)) by Hoare's
// selection, reordering xs: linear in len(xs) where a sort is not, and a
// long traversal asks after every returned clip.
func kthLargest(xs []float64, k int) float64 {
	target := len(xs) - k // the value's position in ascending order
	for lo, hi := 0, len(xs)-1; lo < hi; {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi], and anything between equals it.
		if j < target {
			lo = i
		}
		if target < i {
			hi = j
		}
	}
	return xs[target]
}

// Separated reports whether the k best lower bounds dominate every other
// upper bound (the top-k set is determined), returning the winner indices
// ordered by descending lower bound. This is Equation 15 stated over plain
// bounds; RVAQ's traversal and the coordinator's merge both consult it.
func Separated(bs []Bounds, k int) (winners []int, ok bool) {
	return separatedInto(bs, k, nil)
}

// separatedInto is Separated with a caller-owned permutation buffer. The
// returned winner indices alias that buffer, so callers reusing it must copy
// them out before the next round.
func separatedInto(bs []Bounds, k int, order []int) (winners []int, ok bool) {
	order = order[:0]
	for i := range bs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(bs[j].Lo, bs[i].Lo) })
	if len(bs) <= k {
		return order, true
	}
	bloK := bs[order[k-1]].Lo
	for _, i := range order[k:] {
		if bs[i].Up > bloK {
			return nil, false
		}
	}
	return order[:k], true
}
