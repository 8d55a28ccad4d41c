package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tblEntries(n int, seed float64) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Clip: i * 2, Score: seed + float64(n-i)}
	}
	return out
}

// readBack opens a table and returns its rank-ordered rows.
func readBack(t *testing.T, path string) (string, []Entry) {
	t.Helper()
	tbl, err := OpenDiskTable(path)
	if err != nil {
		t.Fatalf("OpenDiskTable: %v", err)
	}
	defer tbl.Close()
	out := make([]Entry, tbl.Len())
	for i := range out {
		e, err := tbl.SortedAt(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return tbl.Name(), out
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWriteTableCrashAtEveryStep simulates a crash at every mutating
// filesystem operation of a table overwrite. After each crash the file at
// the final path must open cleanly and hold either the complete old rows or
// the complete new rows — never a mixture or a truncation.
func TestWriteTableCrashAtEveryStep(t *testing.T) {
	for _, short := range []bool{false, true} {
		old := tblEntries(40, 1000)
		new_ := tblEntries(25, 2000)
		completed := false
		for step := 1; step < 200 && !completed; step++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "x.tbl")
			if err := WriteTable(path, "typ", old); err != nil {
				t.Fatal(err)
			}
			ffs := NewFlakyFS(OS, FlakyOptions{FailAt: step, ShortWrite: short})
			err := WriteTableFS(ffs, path, "typ", new_)
			if !ffs.Crashed() {
				if err != nil {
					t.Fatalf("step %d (short=%v): uncrashed save failed: %v", step, short, err)
				}
				completed = true
			} else if err == nil {
				t.Fatalf("step %d (short=%v): crashed save reported success", step, short)
			}
			name, got := readBack(t, path)
			if name != "typ" || (!sameEntries(got, rankOrder(old)) && !sameEntries(got, rankOrder(new_))) {
				t.Fatalf("step %d (short=%v): table is neither old nor new (%d rows)", step, short, len(got))
			}
		}
		if !completed {
			t.Fatal("crash sweep never reached a completing save")
		}
	}
}

// rankOrder returns entries in the on-disk rank order (score descending,
// clip ascending on ties).
func rankOrder(entries []Entry) []Entry {
	ref, err := newRefTable("x", entries)
	if err != nil {
		panic(err)
	}
	return ref.byRank
}

// TestWriteTableDiskFull exhausts an injected byte budget: the write must
// fail with ErrNoSpace and leave the previous table intact.
func TestWriteTableDiskFull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tbl")
	old := tblEntries(10, 1)
	if err := WriteTable(path, "typ", old); err != nil {
		t.Fatal(err)
	}
	ffs := NewFlakyFS(OS, FlakyOptions{ByteBudget: 64})
	err := WriteTableFS(ffs, path, "typ", tblEntries(50, 2))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if _, got := readBack(t, path); !sameEntries(got, rankOrder(old)) {
		t.Fatal("old table damaged by failed write")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestOpenDiskTableBitFlips flips every byte of a valid table file in turn;
// each flip must surface as a *CorruptError.
func TestOpenDiskTableBitFlips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tbl")
	if err := WriteTable(path, "car", tblEntries(12, 5)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := OpenDiskTable(path)
		if err == nil {
			tbl.Close()
			t.Fatalf("flip at byte %d: open succeeded", i)
		}
		if !IsCorrupt(err) {
			t.Fatalf("flip at byte %d: err = %v, want CorruptError", i, err)
		}
	}
}

// TestOpenDiskTableTruncations truncates a valid table at every prefix
// length; each must surface as a *CorruptError.
func TestOpenDiskTableTruncations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tbl")
	if err := WriteTable(path, "car", tblEntries(6, 3)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(orig); n++ {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := OpenDiskTable(path)
		if err == nil {
			tbl.Close()
			t.Fatalf("truncation to %d bytes: open succeeded", n)
		}
		if !IsCorrupt(err) {
			t.Fatalf("truncation to %d bytes: err = %v, want CorruptError", n, err)
		}
	}
}

// TestOpenDiskTableLegacyFormat: a format-1 file is detected, not misread.
func TestOpenDiskTableLegacyFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tbl")
	data := append(append([]byte(nil), diskMagicV1[:]...), make([]byte, 32)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDiskTable(path)
	if !IsCorrupt(err) {
		t.Fatalf("err = %v, want CorruptError", err)
	}
}

// TestWriteTableRejectsBadEntries: NaN scores, duplicate and negative clips
// never reach disk.
func TestWriteTableRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	nan := 0.0
	nan /= nan
	cases := map[string][]Entry{
		"nan":      {{Clip: 1, Score: nan}},
		"dup":      {{Clip: 1, Score: 2}, {Clip: 1, Score: 3}},
		"negative": {{Clip: -1, Score: 2}},
	}
	for name, entries := range cases {
		path := filepath.Join(dir, name+".tbl")
		if err := WriteTable(path, name, entries); err == nil {
			t.Errorf("%s: write succeeded", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: file materialised despite rejection", name)
		}
	}
}

// TestWriteFileAtomicCrash: crash at every step of an atomic file replace
// leaves either the old or the new content.
func TestWriteFileAtomicCrash(t *testing.T) {
	completed := false
	for step := 1; step < 50 && !completed; step++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := WriteFileAtomic(OS, path, []byte("old")); err != nil {
			t.Fatal(err)
		}
		ffs := NewFlakyFS(OS, FlakyOptions{FailAt: step, ShortWrite: true})
		err := WriteFileAtomic(ffs, path, []byte("newer"))
		if !ffs.Crashed() {
			if err != nil {
				t.Fatalf("step %d: uncrashed write failed: %v", step, err)
			}
			completed = true
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("step %d: %v", step, rerr)
		}
		if s := string(got); s != "old" && s != "newer" {
			t.Fatalf("step %d: content %q is neither old nor new", step, s)
		}
	}
	if !completed {
		t.Fatal("crash sweep never reached a completing write")
	}
}
