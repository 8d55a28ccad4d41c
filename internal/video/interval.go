package video

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// Interval is an inclusive range [Start, End] of unit indices (frames, shots
// or clips depending on context). The inclusive convention follows the
// paper's sequence notation (c_l, c_r).
type Interval struct {
	Start int
	End   int
}

// Len returns the number of units covered by the interval.
func (iv Interval) Len() int {
	if iv.End < iv.Start {
		return 0
	}
	return iv.End - iv.Start + 1
}

// Contains reports whether unit x lies inside the interval.
func (iv Interval) Contains(x int) bool { return iv.Start <= x && x <= iv.End }

// Overlaps reports whether the two intervals share at least one unit.
func (iv Interval) Overlaps(o Interval) bool { return iv.Start <= o.End && o.Start <= iv.End }

// Intersect returns the overlap of the two intervals and whether it is
// non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	r := Interval{Start: max(iv.Start, o.Start), End: min(iv.End, o.End)}
	if r.End < r.Start {
		return Interval{}, false
	}
	return r, true
}

// IoU returns the intersection-over-union of two intervals, the overlap
// measure used to match result sequences against ground truth.
func (iv Interval) IoU(o Interval) float64 {
	inter, ok := iv.Intersect(o)
	if !ok {
		return 0
	}
	union := iv.Len() + o.Len() - inter.Len()
	return float64(inter.Len()) / float64(union)
}

// Adjacent reports whether o starts exactly where iv ends (or vice versa),
// with no gap, so that the two merge into one continuous run.
func (iv Interval) Adjacent(o Interval) bool {
	return iv.End+1 == o.Start || o.End+1 == iv.Start
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Start, iv.End) }

// IntervalSet is a canonical set of units represented as sorted,
// non-overlapping, non-adjacent inclusive intervals. The zero value is the
// empty set.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a canonical set from arbitrary intervals: they are
// sorted, merged when overlapping or adjacent, and empty ones dropped.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Len() > 0 {
			work = append(work, iv)
		}
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].Start != work[j].Start {
			return work[i].Start < work[j].Start
		}
		return work[i].End < work[j].End
	})
	if len(work) == 0 {
		return IntervalSet{}
	}
	// Merge in place: the merged runs never outnumber the runs read, so
	// the set keeps the one allocation, however many runs it has.
	out := work[:0]
	for _, iv := range work {
		n := len(out)
		if n > 0 && (out[n-1].Overlaps(iv) || out[n-1].Adjacent(iv)) {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return IntervalSet{ivs: out}
}

// Intervals returns the canonical intervals in increasing order. The caller
// must not mutate the returned slice.
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// NumIntervals returns the number of maximal runs in the set.
func (s IntervalSet) NumIntervals() int { return len(s.ivs) }

// Empty reports whether the set contains no units.
func (s IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// TotalLen returns the number of units in the set.
func (s IntervalSet) TotalLen() int {
	t := 0
	for _, iv := range s.ivs {
		t += iv.Len()
	}
	return t
}

// Contains reports whether unit x belongs to the set, by binary search.
func (s IntervalSet) Contains(x int) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= x })
	return i < len(s.ivs) && s.ivs[i].Contains(x)
}

// Span returns the smallest interval covering the whole set.
func (s IntervalSet) Span() (Interval, bool) {
	if s.Empty() {
		return Interval{}, false
	}
	return Interval{Start: s.ivs[0].Start, End: s.ivs[len(s.ivs)-1].End}, true
}

// Union returns the set union, merging adjacent runs.
func (s IntervalSet) Union(o IntervalSet) IntervalSet {
	all := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	all = append(all, s.ivs...)
	all = append(all, o.ivs...)
	return NewIntervalSet(all...)
}

// IntersectSet implements the paper's ⊗ operator: the maximal runs of units
// belonging to both sets. It is a single linear sweep over the two sorted
// interval lists.
func (s IntervalSet) IntersectSet(o IntervalSet) IntervalSet {
	// Every step of the sweep advances one list and yields at most one
	// run, so this capacity is never outgrown.
	out := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		if iv, ok := s.ivs[i].Intersect(o.ivs[j]); ok {
			// Runs produced by intersecting canonical sets can be adjacent
			// (e.g. [0,5]∩([0,2] [3,5])), so merge through NewIntervalSet.
			out = append(out, iv)
		}
		if s.ivs[i].End < o.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return NewIntervalSet(out...)
}

// IntersectAll folds IntersectSet over all the given sets. With no operands
// it returns the empty set.
func IntersectAll(sets ...IntervalSet) IntervalSet {
	if len(sets) == 0 {
		return IntervalSet{}
	}
	acc := sets[0]
	for _, s := range sets[1:] {
		if acc.Empty() {
			return acc
		}
		acc = acc.IntersectSet(s)
	}
	return acc
}

// Subtract returns the units of s not in o.
func (s IntervalSet) Subtract(o IntervalSet) IntervalSet {
	var out []Interval
	j := 0
	for _, iv := range s.ivs {
		cur := iv
		for j < len(o.ivs) && o.ivs[j].End < cur.Start {
			j++
		}
		k := j
		for k < len(o.ivs) && o.ivs[k].Start <= cur.End {
			cut := o.ivs[k]
			if cut.Start > cur.Start {
				out = append(out, Interval{Start: cur.Start, End: cut.Start - 1})
			}
			if cut.End >= cur.End {
				cur = Interval{Start: 1, End: 0} // emptied
				break
			}
			cur.Start = cut.End + 1
			k++
		}
		if cur.Len() > 0 {
			out = append(out, cur)
		}
	}
	return NewIntervalSet(out...)
}

// Clamp restricts the set to the given bounds.
func (s IntervalSet) Clamp(bounds Interval) IntervalSet {
	var out []Interval
	for _, iv := range s.ivs {
		if r, ok := iv.Intersect(bounds); ok {
			out = append(out, r)
		}
	}
	return NewIntervalSet(out...)
}

// FromIndicator builds the canonical set of maximal runs where ind[i] is
// true; index i corresponds to unit i. This is the paper's merge step
// (Equation 4) applied to per-clip indicators. Runs are found with memchr
// (bytes.IndexByte) for the next 1, then the next 0, over a byte view.
func FromIndicator(ind []bool) IntervalSet {
	var out []Interval
	b := boolBytes(ind)
	for i := 0; ; {
		s := bytes.IndexByte(b[i:], 1)
		if s < 0 {
			break
		}
		s += i
		e := bytes.IndexByte(b[s:], 0)
		if e < 0 {
			e = len(b) - s
		}
		i = s + e
		out = append(out, Interval{Start: s, End: i - 1})
	}
	return IntervalSet{ivs: out}
}

// boolBytes views ind as bytes without copying: Go stores a bool as one
// byte holding 0 or 1.
func boolBytes(ind []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ind))), len(ind))
}

// Indicator renders the set as a boolean vector over [0, n).
func (s IntervalSet) Indicator(n int) []bool {
	ind := make([]bool, n)
	for _, iv := range s.ivs {
		for i := max(0, iv.Start); i <= iv.End && i < n; i++ {
			ind[i] = true
		}
	}
	return ind
}

// Validate checks the canonical-form invariants; it is used by property
// tests.
func (s IntervalSet) Validate() error {
	for i, iv := range s.ivs {
		if iv.Len() <= 0 {
			return fmt.Errorf("video: empty interval %v at %d", iv, i)
		}
		if i > 0 && s.ivs[i-1].End+1 >= iv.Start {
			return fmt.Errorf("video: intervals %v and %v overlap or touch", s.ivs[i-1], iv)
		}
	}
	return nil
}

func (s IntervalSet) String() string {
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
