package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"svqact/internal/testenv"
)

// at reads a sorted row, failing the test on error.
func at(tb testing.TB, t Table, i int) Entry {
	tb.Helper()
	e, err := t.SortedAt(i)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// score random-accesses a clip, failing the test on error.
func score(tb testing.TB, t Table, clip int) (float64, bool) {
	tb.Helper()
	s, ok, err := t.ScoreOf(clip)
	if err != nil {
		tb.Fatal(err)
	}
	return s, ok
}

func sampleEntries(n int, seed int64) []Entry {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(n * 3)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Clip: perm[i], Score: r.Float64() * 100}
	}
	return entries
}

// TestMemTableOrdering: a table built in memory serves exactly the
// referee's rows, in rank order with ties by clip id, and its scores.
func TestMemTableOrdering(t *testing.T) {
	entries := sampleEntries(500, 1)
	tbl, err := NewMemTable("car", entries)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRef(tbl, mustRef(t, "car", entries), -1, 1500, math.MaxInt); d != "" {
		t.Fatal(d)
	}
}

// TestMemTableRejectsDuplicates: a table built in memory is an encoded
// image, so NewMemTable refuses every entry set the encoder refuses —
// duplicate clips, and NaN scores and clip ids outside [0, MaxUint32],
// which once failed only when the table was saved.
func TestMemTableRejectsDuplicates(t *testing.T) {
	for name, entries := range map[string][]Entry{
		"dup":      {{Clip: 1, Score: 2}, {Clip: 1, Score: 3}},
		"nan":      {{Clip: 1, Score: math.NaN()}},
		"negative": {{Clip: -1, Score: 2}},
		"wide":     {{Clip: math.MaxUint32 + 1, Score: 2}},
	} {
		if tbl, err := NewMemTable("x", entries); err == nil {
			t.Errorf("%s: NewMemTable accepted %v (%d rows)", name, entries, tbl.Len())
		}
	}
	if _, err := NewMemTable("x", []Entry{{Clip: math.MaxUint32, Score: 2}}); err != nil {
		t.Errorf("largest clip id rejected: %v", err)
	}
}

func TestMemTableTieBreakDeterministic(t *testing.T) {
	entries := []Entry{{Clip: 5, Score: 1}, {Clip: 2, Score: 1}, {Clip: 9, Score: 1}}
	a, _ := NewMemTable("x", entries)
	if at(t, a, 0).Clip != 2 || at(t, a, 1).Clip != 5 || at(t, a, 2).Clip != 9 {
		t.Errorf("equal scores must order by clip id: %v %v %v", at(t, a, 0), at(t, a, 1), at(t, a, 2))
	}
	if d := diffRef(a, mustRef(t, "x", entries)); d != "" {
		t.Error(d)
	}
}

func TestDiskTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "car.tbl")
	entries := sampleEntries(1000, 2)
	if err := WriteTable(path, "car", entries); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDiskTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if d := diffRef(dt, mustRef(t, "car", entries), 999_999); d != "" {
		t.Fatal(d)
	}
}

func TestDiskTableEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.tbl")
	if err := WriteTable(path, "nothing", nil); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDiskTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if dt.Len() != 0 {
		t.Errorf("Len = %d", dt.Len())
	}
	if _, ok := score(t, dt, 0); ok {
		t.Error("empty table should find nothing")
	}
}

func TestWriteTableValidation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTable(filepath.Join(dir, "d.tbl"), "d", []Entry{{Clip: 1, Score: 1}, {Clip: 1, Score: 2}}); err == nil {
		t.Error("duplicate clips should be rejected")
	}
	if err := WriteTable(filepath.Join(dir, "n.tbl"), "n", []Entry{{Clip: -1, Score: 1}}); err == nil {
		t.Error("negative clip should be rejected")
	}
	if err := WriteTable(filepath.Join(dir, "missing", "x.tbl"), "x", nil); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestOpenDiskTableBadFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.tbl")
	if err := os.WriteFile(bad, []byte("not a table at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskTable(bad); err == nil {
		t.Error("garbage file should fail to open")
	}
	if _, err := OpenDiskTable(filepath.Join(dir, "absent.tbl")); err == nil {
		t.Error("absent file should fail to open")
	}
}

func TestSortedAtOutOfRangeErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.tbl")
	if err := WriteTable(path, "p", []Entry{{Clip: 0, Score: 1}}); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDiskTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if _, err := dt.SortedAt(5); err == nil {
		t.Error("out-of-range row should return an error, not panic")
	}
	if _, err := dt.SortedAt(-1); err == nil {
		t.Error("negative row should return an error")
	}
	mem, _ := NewMemTable("p", []Entry{{Clip: 0, Score: 1}})
	if _, err := mem.SortedAt(7); err == nil {
		t.Error("mem out-of-range row should return an error")
	}
}

// TestDiskTableViewOutlivesFile pins the zero-copy view's lifetime
// contract: an open table serves verified bytes even after the file is
// unlinked (compaction removes superseded generations while readers may
// still hold them), and a closed table errors cleanly instead of touching
// freed memory.
func TestDiskTableViewOutlivesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unlink.tbl")
	entries := sampleEntries(64, 9)
	if err := WriteTable(path, "unlink", entries); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDiskTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dt.Len(); i++ {
		if _, err := dt.SortedAt(i); err != nil {
			t.Fatalf("SortedAt(%d) after unlink: %v", i, err)
		}
	}
	for _, e := range entries {
		got, ok, err := dt.ScoreOf(e.Clip)
		if err != nil || !ok || got != e.Score {
			t.Fatalf("ScoreOf(%d) after unlink = (%v, %v, %v), want (%v, true, nil)", e.Clip, got, ok, err, e.Score)
		}
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dt.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := dt.SortedAt(0); err == nil {
		t.Error("SortedAt on a closed table should error")
	}
	if _, _, err := dt.ScoreOf(entries[0].Clip); err == nil {
		t.Error("ScoreOf on a closed table should error")
	}
}

func TestStatsCounting(t *testing.T) {
	tbl, _ := NewMemTable("x", sampleEntries(100, 3))
	var st Stats
	c := WithStats(tbl, &st)
	if c.Name() != "x" || c.Len() != 100 {
		t.Fatal("wrapper must delegate metadata without counting")
	}
	if st.Sorted != 0 || st.Random != 0 {
		t.Fatal("metadata should not count as accesses")
	}
	for i := 0; i < 10; i++ {
		c.SortedAt(i)
	}
	c.ScoreOf(1)
	c.ScoreOf(2)
	c.ScoreOf(-5)
	if st.Sorted != 10 || st.Random != 3 {
		t.Errorf("stats = %+v, want 10 sorted, 3 random", st)
	}
	var total Stats
	total.Add(st)
	total.Add(Stats{Sorted: 1, Random: 2})
	if total.Sorted != 11 || total.Random != 5 {
		t.Errorf("Add = %+v", total)
	}
}

// TestDiskMatchesMemProperty exercises a table read back from a file and one
// built in memory with identical random workloads, each against the referee.
func TestDiskMatchesMemProperty(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		entries := sampleEntries(257, seed)
		path := filepath.Join(t.TempDir(), "t.tbl")
		if err := WriteTable(path, "t", entries); err != nil {
			t.Fatal(err)
		}
		dt, err := OpenDiskTable(path)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewMemTable("t", entries)
		if err != nil {
			t.Fatal(err)
		}
		ref := mustRef(t, "t", entries)
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 500; trial++ {
			if r.Intn(2) == 0 {
				i := r.Intn(ref.Len())
				want := at(t, ref, i)
				if at(t, dt, i) != want || at(t, mem, i) != want {
					t.Fatalf("SortedAt(%d): disk %v mem %v referee %v", i, at(t, dt, i), at(t, mem, i), want)
				}
			} else {
				clip := r.Intn(800)
				ds, dok := score(t, dt, clip)
				ms, mok := score(t, mem, clip)
				rs, rok := score(t, ref, clip)
				if ds != rs || dok != rok || ms != rs || mok != rok {
					t.Fatalf("ScoreOf(%d): disk %v,%v mem %v,%v referee %v,%v", clip, ds, dok, ms, mok, rs, rok)
				}
			}
		}
		dt.Close()
	}
}

// TestScoresSortedByClipRegion validates the on-disk clip region is usable
// for range scans by clip id (ingestion invariant).
func TestScoresSortedByClipRegion(t *testing.T) {
	entries := sampleEntries(300, 5)
	path := filepath.Join(t.TempDir(), "t.tbl")
	if err := WriteTable(path, "t", entries); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDiskTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	clips := make([]int, len(entries))
	for i, e := range entries {
		clips[i] = e.Clip
	}
	sort.Ints(clips)
	// Every clip must be findable, which exercises the full binary-search
	// region in clip order.
	for _, c := range clips {
		if _, ok := score(t, dt, c); !ok {
			t.Fatalf("clip %d not found", c)
		}
	}
}

// TestTableAllocsSteadyState pins the reader's allocation contract: SortedAt
// and ScoreOf decode in place and allocate nothing, on a table built in
// memory and on one cut from a pack alike.
func TestTableAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	entries := sampleEntries(300, 7)
	mem, err := NewMemTable("car", entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tables.pack")
	if err := os.WriteFile(path, mem.Image(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cut, err := p.Table(0, p.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	for name, tbl := range map[string]*DiskTable{"mem": mem, "pack": cut} {
		sink := 0.0
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < tbl.Len(); i++ {
				e, _ := tbl.SortedAt(i)
				s, _, _ := tbl.ScoreOf(e.Clip)
				next, _, _ := tbl.ScoreOf(e.Clip + 1)
				sink += s + next
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per pass over %d rows, want 0", name, allocs, tbl.Len())
		}
		if sink == 0 {
			t.Errorf("%s: read nothing", name)
		}
	}
}
