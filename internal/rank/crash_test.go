package rank

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"svqact/internal/store"
)

// summarize renders an index's full queryable content as a canonical string,
// so two loads can be compared for exact equality.
func summarize(t *testing.T, ix *Index) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s clips=%d\n", ix.Name, ix.NumClips)
	dump := func(kind string, m map[string]*TypeIndex) {
		types := make([]string, 0, len(m))
		for k := range m {
			types = append(types, k)
		}
		sort.Strings(types)
		for _, typ := range types {
			ti := m[typ]
			fmt.Fprintf(&b, "%s %s seqs=%v rows=", kind, typ, ti.Seqs.Intervals())
			for i := 0; i < ti.Table.Len(); i++ {
				e, err := ti.Table.SortedAt(i)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%d:%g,", e.Clip, e.Score)
			}
			b.WriteString("\n")
		}
	}
	dump("obj", ix.Objects)
	dump("act", ix.Actions)
	return b.String()
}

// TestSaveCrashAtEveryStep is the crash-injection property test of the
// generation commit protocol: a crash at every mutating filesystem operation
// of a re-save must leave the directory loadable as either the complete
// previous index or the complete new one — never a mixture, never silently
// wrong data.
func TestSaveCrashAtEveryStep(t *testing.T) {
	ix1 := buildIndex(t, 60, 7, []int{3, 4})
	ix2 := buildIndex(t, 40, 9, []int{2, 5, 3}) // same member name, new content
	var want1, want2 string
	for _, short := range []bool{false, true} {
		completed := false
		for step := 1; step < 500 && !completed; step++ {
			dir := t.TempDir()
			if err := Save(dir, ix1); err != nil {
				t.Fatal(err)
			}
			base, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want1 == "" {
				want1 = summarize(t, base)
			}
			base.Close()

			ffs := store.NewFlakyFS(store.OS, store.FlakyOptions{FailAt: step, ShortWrite: short})
			serr := SaveFS(ffs, dir, ix2)
			if !ffs.Crashed() {
				if serr != nil {
					t.Fatalf("step %d (short=%v): uncrashed save failed: %v", step, short, serr)
				}
				completed = true
			}
			// A crashed save may still report success when the crash hit only
			// the best-effort GC after the commit point — in that case the new
			// generation must be the one that loads.

			// The old generation stays committed until the CURRENT swap, so
			// the directory always loads: as the old index or the new one.
			got, lerr := Load(dir)
			if lerr != nil {
				t.Fatalf("step %d (short=%v): Load after a crashed save: %v", step, short, lerr)
			}
			s := summarize(t, got)
			got.Close()
			if s != want1 && s != summarizeOnce(t, ix2, &want2) {
				t.Fatalf("step %d (short=%v): loaded index is neither the old nor the new generation:\n%s", step, short, s)
			}
			if serr == nil && s != want2 {
				t.Fatalf("step %d (short=%v): save reported success but the old generation loads", step, short)
			}
		}
		if !completed {
			t.Fatal("crash sweep never reached a completing save")
		}
	}
}

// summarizeOnce lazily computes (and caches) the canonical summary of ix as
// it round-trips through a save and load.
func summarizeOnce(t *testing.T, ix *Index, cache *string) string {
	t.Helper()
	if *cache == "" {
		dir := t.TempDir()
		if err := Save(dir, ix); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		*cache = summarize(t, loaded)
		loaded.Close()
	}
	return *cache
}

// TestFirstSaveCrashNeverYieldsPartialIndex: crashing the very first save of
// a directory must leave it unloadable (no committed generation), never a
// partial index.
func TestFirstSaveCrashNeverYieldsPartialIndex(t *testing.T) {
	ix := buildIndex(t, 40, 3, []int{2, 3})
	want := summarizeOnce(t, ix, new(string))
	for _, short := range []bool{false, true} {
		completed := false
		for step := 1; step < 500 && !completed; step++ {
			dir := filepath.Join(t.TempDir(), "member") // the save creates it
			ffs := store.NewFlakyFS(store.OS, store.FlakyOptions{FailAt: step, ShortWrite: short})
			serr := SaveFS(ffs, dir, ix)
			if !ffs.Crashed() {
				if serr != nil {
					t.Fatalf("step %d (short=%v): uncrashed save failed: %v", step, short, serr)
				}
				completed = true
				continue
			}
			got, lerr := Load(dir)
			if lerr != nil {
				continue // nothing committed
			}
			// Only acceptable if the commit actually landed before the
			// crash (crash hit the directory sync or the GC after the
			// CURRENT swap).
			s := summarize(t, got)
			got.Close()
			if s != want {
				t.Fatalf("step %d (short=%v): loaded a partial index:\n%s", step, short, s)
			}
		}
		if !completed {
			t.Fatal("crash sweep never reached a completing save")
		}
	}
}

// TestSaveDiskFullKeepsOldGeneration: an ENOSPC mid-save fails the save and
// keeps the previous generation serving.
func TestSaveDiskFullKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	ix1 := buildIndex(t, 60, 7, []int{3, 4})
	if err := Save(dir, ix1); err != nil {
		t.Fatal(err)
	}
	before, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, before)
	before.Close()

	// The save writes the pack, then the manifest, then CURRENT; the budgets
	// run out inside each of them.
	ix2 := buildIndex(t, 80, 11, []int{4, 4})
	total := savedBytes(t, ix2)
	for _, budget := range []int{1, 200, total / 2, total - 40, total - 1} {
		ffs := store.NewFlakyFS(store.OS, store.FlakyOptions{ByteBudget: budget})
		if err := SaveFS(ffs, dir, ix2); !errors.Is(err, store.ErrNoSpace) {
			t.Fatalf("budget %d of %d: err = %v, want ErrNoSpace", budget, total, err)
		}
		after, err := Load(dir)
		if err != nil {
			t.Fatalf("budget %d: Load after ENOSPC: %v", budget, err)
		}
		got := summarize(t, after)
		after.Close()
		if got != want {
			t.Fatalf("budget %d: generation changed across a failed save:\n%s", budget, got)
		}
	}
}

// savedBytes is the number of bytes one save of ix writes.
func savedBytes(t *testing.T, ix *Index) int {
	t.Helper()
	dir := t.TempDir()
	if err := Save(dir, ix); err != nil {
		t.Fatal(err)
	}
	total := 0
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			total += int(fi.Size())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestSaveCollectsSupersededGenerations (satellite): re-saving a smaller
// index into an existing directory leaves exactly one generation, holding
// exactly its pack and manifest.
func TestSaveCollectsSupersededGenerations(t *testing.T) {
	dir := t.TempDir()
	big := buildIndex(t, 80, 5, []int{3, 3, 3})
	if err := Save(dir, big); err != nil {
		t.Fatal(err)
	}
	small := buildIndex(t, 30, 6, []int{2})
	delete(small.Objects, "human") // fewer types than the first save
	if err := Save(dir, small); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "CURRENT" || names[1] != genName(2) {
		t.Fatalf("directory after re-save = %v, want [CURRENT %s]", names, genName(2))
	}
	genEntries, err := os.ReadDir(filepath.Join(dir, genName(2)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{manifestFile: true, packFile: true}
	for _, e := range genEntries {
		if !want[e.Name()] {
			t.Errorf("orphan file %s in live generation", e.Name())
		}
		delete(want, e.Name())
	}
	for f := range want {
		t.Errorf("expected file %s missing", f)
	}
	ix, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Generation != 2 || ix.NumClips != 30 {
		t.Errorf("loaded generation %d with %d clips, want gen 2 with 30", ix.Generation, ix.NumClips)
	}
}
