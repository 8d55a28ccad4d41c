package store

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refTable is the in-memory table the store served before every table became
// an encoded image: the rows re-sorted into a slice, plus a map by clip. The
// one reader (DiskTable, whether its image was just encoded or read back) is
// compared against it; never edit it to make a comparison pass.
type refTable struct {
	name   string
	byRank []Entry // non-increasing score
	byClip map[int]float64
}

// newRefTable builds the referee from arbitrary-order entries. Clips must be
// unique.
func newRefTable(name string, entries []Entry) (*refTable, error) {
	t := &refTable{
		name:   name,
		byRank: append([]Entry(nil), entries...),
		byClip: make(map[int]float64, len(entries)),
	}
	for _, e := range entries {
		if _, dup := t.byClip[e.Clip]; dup {
			return nil, fmt.Errorf("store: duplicate clip %d in table %q", e.Clip, name)
		}
		t.byClip[e.Clip] = e.Score
	}
	sort.Slice(t.byRank, func(i, j int) bool {
		if t.byRank[i].Score != t.byRank[j].Score {
			return t.byRank[i].Score > t.byRank[j].Score
		}
		return t.byRank[i].Clip < t.byRank[j].Clip // deterministic tie-break
	})
	return t, nil
}

func (t *refTable) Name() string { return t.name }
func (t *refTable) Len() int     { return len(t.byRank) }

func (t *refTable) SortedAt(i int) (Entry, error) {
	if i < 0 || i >= len(t.byRank) {
		return Entry{}, fmt.Errorf("store: SortedAt(%d) out of range [0,%d) in table %q", i, len(t.byRank), t.name)
	}
	return t.byRank[i], nil
}

func (t *refTable) ScoreOf(clip int) (float64, bool, error) {
	s, ok := t.byClip[clip]
	return s, ok, nil
}

// mustRef builds the referee, failing the test on error.
func mustRef(tb testing.TB, name string, entries []Entry) *refTable {
	tb.Helper()
	ref, err := newRefTable(name, entries)
	if err != nil {
		tb.Fatal(err)
	}
	return ref
}

// diffRef compares every observable of got with the referee: name, length,
// every row bit for bit (and the errors just outside the range), and ScoreOf
// at every stored clip and at each clip in probes. It returns the first
// difference, or "" when there is none.
func diffRef(got Table, ref *refTable, probes ...int) string {
	if got.Name() != ref.Name() || got.Len() != ref.Len() {
		return fmt.Sprintf("name/len %q/%d, referee %q/%d", got.Name(), got.Len(), ref.Name(), ref.Len())
	}
	for i := -1; i <= ref.Len(); i++ {
		ge, gerr := got.SortedAt(i)
		re, rerr := ref.SortedAt(i)
		if ge.Clip != re.Clip || math.Float64bits(ge.Score) != math.Float64bits(re.Score) || (gerr == nil) != (rerr == nil) {
			return fmt.Sprintf("SortedAt(%d) = %v,%v, referee %v,%v", i, ge, gerr, re, rerr)
		}
	}
	clips := append([]int(nil), probes...)
	for clip := range ref.byClip {
		clips = append(clips, clip)
	}
	for _, clip := range clips {
		gs, gok, gerr := got.ScoreOf(clip)
		rs, rok, _ := ref.ScoreOf(clip)
		if math.Float64bits(gs) != math.Float64bits(rs) || gok != rok || gerr != nil {
			return fmt.Sprintf("ScoreOf(%d) = %v,%v,%v, referee %v,%v", clip, gs, gok, gerr, rs, rok)
		}
	}
	return ""
}
