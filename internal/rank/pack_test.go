package rank

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svqact/internal/store"
)

// recordingFS logs every mutating operation a save performs, with paths
// relative to root, so a test can pin the order of writes and barriers.
type recordingFS struct {
	store.FS
	root string
	ops  []string
}

func (r *recordingFS) log(op, path string) {
	rel, err := filepath.Rel(r.root, path)
	if err != nil {
		rel = path
	}
	r.ops = append(r.ops, op+" "+filepath.ToSlash(rel))
}

func (r *recordingFS) Create(path string) (store.File, error) {
	r.log("create", path)
	f, err := r.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r, path: path}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.log("rename", newpath)
	return r.FS.Rename(oldpath, newpath)
}

func (r *recordingFS) MkdirAll(path string, perm os.FileMode) error {
	r.log("mkdir", path)
	return r.FS.MkdirAll(path, perm)
}

func (r *recordingFS) RemoveAll(path string) error {
	r.log("removeall", path)
	return r.FS.RemoveAll(path)
}

func (r *recordingFS) SyncDir(path string) error {
	r.log("syncdir", path)
	return r.FS.SyncDir(path)
}

type recordingFile struct {
	store.File
	fs   *recordingFS
	path string
}

func (f *recordingFile) Sync() error {
	f.fs.log("fsync", f.path)
	return f.File.Sync()
}

// syncs counts the barriers (file fsyncs and directory syncs) in a log.
func syncs(ops []string) int {
	n := 0
	for _, op := range ops {
		if strings.HasPrefix(op, "fsync ") || strings.HasPrefix(op, "syncdir ") {
			n++
		}
	}
	return n
}

// TestSaveSyncBudget pins the write path of a save: which files it creates,
// which barriers it issues and in what order. The first save of a member
// must also sync the parent directory (without it a power loss can drop the
// whole member after its commit); a later generation must not pay for that.
// Budget: 6 syncs for a new member, 5 for a new generation.
func TestSaveSyncBudget(t *testing.T) {
	root := t.TempDir()
	rec := &recordingFS{FS: store.OS, root: root}
	dir := filepath.Join(root, "member")

	if err := SaveFS(rec, dir, buildIndex(t, 60, 7, []int{3, 4})); err != nil {
		t.Fatal(err)
	}
	first := rec.ops
	want := []string{
		"mkdir member",
		"syncdir .", // the member's entry in its parent
		"mkdir member/gen-000001",
		"create member/gen-000001/tables.pack",
		"fsync member/gen-000001/tables.pack",
		"create member/gen-000001/manifest.json",
		"fsync member/gen-000001/manifest.json",
		"syncdir member/gen-000001", // the one barrier before the commit
		"create member/CURRENT.tmp",
		"fsync member/CURRENT.tmp",
		"rename member/CURRENT",
		"syncdir member",
	}
	if got := strings.Join(first, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("first save performed:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if n := syncs(first); n > 6 {
		t.Errorf("first save of a member took %d syncs, budget is 6", n)
	}

	// A later generation: no parent sync, and the superseded generation is
	// collected only after the commit.
	rec.ops = nil
	if err := SaveFS(rec, dir, buildIndex(t, 40, 9, []int{2, 5, 3})); err != nil {
		t.Fatal(err)
	}
	want = []string{
		"mkdir member",
		"mkdir member/gen-000002",
		"create member/gen-000002/tables.pack",
		"fsync member/gen-000002/tables.pack",
		"create member/gen-000002/manifest.json",
		"fsync member/gen-000002/manifest.json",
		"syncdir member/gen-000002",
		"create member/CURRENT.tmp",
		"fsync member/CURRENT.tmp",
		"rename member/CURRENT",
		"syncdir member",
		"removeall member/gen-000001",
	}
	if got := strings.Join(rec.ops, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("second save performed:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if n := syncs(rec.ops); n > 5 {
		t.Errorf("a new generation took %d syncs, budget is 5", n)
	}
}

// flipEveryByte damages path one byte at a time and requires Load(dir) to
// answer each with a CorruptError, restoring the file afterwards.
func flipEveryByte(t *testing.T, dir, path string) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(orig))
	for i := range orig {
		copy(mut, orig)
		mut[i] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, fmt.Sprintf("%s byte %d of %d flipped", filepath.Base(path), i, len(orig)))
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCorruptionTable: a flipped byte anywhere in a saved index — every
// byte of every pack section (header, name, all three checksums, both row
// regions), of the manifest, and of CURRENT — and a pack that lost or gained
// bytes, all load as CorruptError.
func TestLoadCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, buildIndex(t, 24, 7, []int{3, 4})); err != nil {
		t.Fatal(err)
	}
	gen := liveGen(t, dir)
	packPath := filepath.Join(gen, packFile)

	flipEveryByte(t, dir, packPath)
	flipEveryByte(t, dir, filepath.Join(gen, manifestFile))
	flipEveryByte(t, dir, filepath.Join(dir, currentFile))

	pack, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(pack); n += 7 {
		if err := os.WriteFile(packPath, pack[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, fmt.Sprintf("pack truncated to %d of %d bytes", n, len(pack)))
	}
	if err := os.WriteFile(packPath, append(append([]byte(nil), pack...), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, dir, "pack with a trailing byte")

	// Undamaged again, it loads.
	if err := os.WriteFile(packPath, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(dir)
	if err != nil {
		t.Fatalf("restored index does not load: %v", err)
	}
	ix.Close()
}

// TestLoadRejectsFormat2: testdata/format2 is a generation written by the
// last commit that saved one file per table. Nothing can read it any more;
// Load and Fsck must say so, with the remedy, instead of misreading it.
func TestLoadRejectsFormat2(t *testing.T) {
	dir := filepath.Join("testdata", "format2")
	for name, open := range map[string]func() error{
		"Load": func() error { _, err := Load(dir); return err },
		"Fsck": func() error { _, err := Fsck(dir); return err },
	} {
		err := open()
		if !IsCorrupt(err) {
			t.Fatalf("%s of a format-2 directory: err = %v, want CorruptError", name, err)
		}
		if !strings.Contains(err.Error(), "re-ingest") || !strings.Contains(err.Error(), "format 2") {
			t.Errorf("%s: error lacks the format or the re-ingest hint: %v", name, err)
		}
	}
}

// TestIndexOwnsOneMapping: a loaded index holds one mapping of its pack.
// Close releases it once and may be repeated; tables fail loudly afterwards;
// and until then the index keeps answering from a generation that a newer
// save has already unlinked — what rolling generation swaps rely on.
func TestIndexOwnsOneMapping(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, buildIndex(t, 60, 7, []int{3, 4})); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.pack == nil {
		t.Fatal("loaded index holds no pack mapping")
	}
	for _, ti := range ix.Objects {
		if _, ok := ti.Table.(*store.DiskTable); !ok {
			t.Fatalf("loaded table is a %T, want a *store.DiskTable cut from the pack", ti.Table)
		}
	}
	want := summarize(t, ix)

	// A second save commits generation 2 and unlinks generation 1.
	if err := Save(dir, buildIndex(t, 40, 9, []int{2, 5, 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, genName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 still on disk after the second save: %v", err)
	}
	if got := summarize(t, ix); got != want {
		t.Fatalf("open index changed after its generation was unlinked:\n%s", got)
	}

	tbl := ix.Objects["car"].Table
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ix.pack != nil {
		t.Error("Close left the pack mapping in place")
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := tbl.SortedAt(0); err == nil {
		t.Error("SortedAt succeeded on a closed index")
	}
	lo, _, _ := tbl.(*store.DiskTable).ClipBounds()
	if _, _, err := tbl.ScoreOf(lo); err == nil {
		t.Error("ScoreOf succeeded on a closed index")
	}
}

// TestCloseClosesInMemoryTables: an index that never touched disk holds
// tables whose images are on the heap; Close closes them too, so a read
// after it errors as it does on a loaded index.
func TestCloseClosesInMemoryTables(t *testing.T) {
	ix := buildIndex(t, 60, 7, []int{3, 4})
	tbl := ix.Objects["car"].Table
	if _, err := tbl.SortedAt(0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := tbl.SortedAt(0); err == nil {
		t.Error("SortedAt succeeded on a closed in-memory index")
	}
}

// FuzzLoadGeneration feeds Load the three files of a saved index as
// arbitrary bytes — the commit record, the manifest (whose offsets and
// lengths it must not trust) and the pack. Load must never panic, must
// reject with a *CorruptError, and whatever it accepts must be a sound
// index: every table sorted, agreeing with itself on both access paths, and
// inside the clip space, every sequence inside it too.
func FuzzLoadGeneration(f *testing.F) {
	for _, ix := range []*Index{
		buildIndex(f, 24, 7, []int{3, 4}),
		buildIndex(f, 9, 3, []int{2}),
		{Name: "empty", NumClips: 0, Objects: map[string]*TypeIndex{}, Actions: map[string]*TypeIndex{}},
	} {
		dir := f.TempDir()
		if err := Save(dir, ix); err != nil {
			f.Fatal(err)
		}
		var files [3][]byte
		for i, name := range []string{currentFile, filepath.Join(genName(1), manifestFile), filepath.Join(genName(1), packFile)} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				f.Fatal(err)
			}
			files[i] = data
		}
		f.Add(files[0], files[1], files[2])
		// The same generation with a manifest that lies about one offset:
		// valid JSON, re-committed, so the fuzzer starts past the checksum.
		lie := []byte(strings.Replace(string(files[1]), `"off": 0`, `"off": -8`, 1))
		f.Add([]byte(fmt.Sprintf("%s crc32=%08x\n", genName(1), store.Checksum(lie))), lie, files[2])
	}
	// One directory per fuzz worker process, reused: a fresh t.TempDir() per
	// input costs more than the Load under test.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, current, manifestBytes, pack []byte) {
		if err := os.WriteFile(filepath.Join(dir, currentFile), current, 0o644); err != nil {
			t.Fatal(err)
		}
		if gen, _, err := parseCurrent(dir, current); err == nil {
			genDir := filepath.Join(dir, gen)
			if err := os.Mkdir(genDir, 0o755); err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(genDir)
			if err := os.WriteFile(filepath.Join(genDir, manifestFile), manifestBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(genDir, packFile), pack, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := Load(dir)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("rejection is not a CorruptError: %v", err)
			}
			return
		}
		defer ix.Close()
		for _, m := range []map[string]*TypeIndex{ix.Objects, ix.Actions} {
			for typ, ti := range m {
				if ti.Table.Name() != typ {
					t.Fatalf("table %q filed under type %q", ti.Table.Name(), typ)
				}
				prev := store.Entry{}
				for i := 0; i < ti.Table.Len(); i++ {
					e, err := ti.Table.SortedAt(i)
					if err != nil {
						t.Fatal(err)
					}
					if e.Clip < 0 || e.Clip >= ix.NumClips {
						t.Fatalf("type %q scores clip %d outside [0,%d)", typ, e.Clip, ix.NumClips)
					}
					if i > 0 && (e.Score > prev.Score || (e.Score == prev.Score && e.Clip <= prev.Clip)) {
						t.Fatalf("type %q out of rank order at row %d", typ, i)
					}
					if s, ok, err := ti.Table.ScoreOf(e.Clip); err != nil || !ok || s != e.Score {
						t.Fatalf("type %q: ScoreOf(%d) = %v,%v,%v; SortedAt(%d) says %v", typ, e.Clip, s, ok, err, i, e.Score)
					}
					prev = e
				}
				for _, iv := range ti.Seqs.Intervals() {
					if iv.Start < 0 || iv.End < iv.Start || iv.End >= ix.NumClips {
						t.Fatalf("type %q sequence %v outside [0,%d)", typ, iv, ix.NumClips)
					}
				}
			}
		}
	})
}
