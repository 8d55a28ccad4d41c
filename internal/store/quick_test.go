package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// entriesValue draws a random set of unique-clip entries: some with clip ids
// at the top of the encoder's range, some with tied scores, signed zeros and
// infinities.
type entriesValue struct{ E []Entry }

// Generate implements quick.Generator.
func (entriesValue) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(60)
	perm := r.Perm(200)
	base := 0
	if r.Intn(4) == 0 {
		base = math.MaxUint32 - 199
	}
	e := make([]Entry, n)
	for i := range e {
		e[i] = Entry{Clip: base + perm[i], Score: r.Float64() * 50}
		if r.Intn(4) == 0 {
			e[i].Score = [...]float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1)}[r.Intn(5)]
		}
	}
	return reflect.ValueOf(entriesValue{E: e})
}

func TestQuickMemTableInvariants(t *testing.T) {
	f := func(v entriesValue) bool {
		tbl, err := NewMemTable("q", v.E)
		if err != nil {
			return false
		}
		if tbl.Len() != len(v.E) {
			return false
		}
		// Rank order is non-increasing and every entry is findable.
		for i := 1; i < tbl.Len(); i++ {
			cur, err := tbl.SortedAt(i)
			if err != nil {
				return false
			}
			prev, err := tbl.SortedAt(i - 1)
			if err != nil {
				return false
			}
			if cur.Score > prev.Score {
				return false
			}
		}
		for _, e := range v.E {
			s, ok, err := tbl.ScoreOf(e.Clip)
			if err != nil || !ok || s != e.Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiskRoundTrip: for any entries the encoder accepts, the table
// read back from a file and the table built in memory serve the referee's
// rows, and the in-memory table's image — served without verification —
// passes the verifier.
func TestQuickDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := func(v entriesValue) bool {
		path := filepath.Join(dir, "t.tbl")
		if err := WriteTable(path, "t", v.E); err != nil {
			t.Log(err)
			return false
		}
		dt, err := OpenDiskTable(path)
		if err != nil {
			t.Log(err)
			return false
		}
		defer dt.Close()
		mem, err := NewMemTable("t", v.E)
		if err != nil {
			t.Log(err)
			return false
		}
		if _, err := verifyView(mem.Image(), "mem"); err != nil {
			t.Logf("verifier rejects an in-memory table's image: %v", err)
			return false
		}
		ref, err := newRefTable("t", v.E)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, tbl := range []*DiskTable{dt, mem} {
			lo, hi, _ := tbl.ClipBounds()
			if d := diffRef(tbl, ref, -1, lo-1, hi+1, math.MaxInt); d != "" {
				t.Log(d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
