package rank

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svqact/internal/store"
)

// savedDir materialises a small valid index and returns its directory.
func savedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := Save(dir, buildIndex(t, 60, 7, []int{3, 4})); err != nil {
		t.Fatal(err)
	}
	return dir
}

// liveGen returns the committed generation directory of dir.
func liveGen(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := parseCurrent(dir, raw)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, gen)
}

// rewriteManifest applies mutate to the committed manifest and re-commits it
// (CURRENT's checksum updated to match), so Load's structural validation —
// not the checksum — is what must catch the damage.
func rewriteManifest(t *testing.T, dir string, mutate func(*manifest)) {
	t.Helper()
	gen := liveGen(t, dir)
	data, err := os.ReadFile(filepath.Join(gen, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(gen, manifestFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	record := fmt.Sprintf("%s crc32=%08x\n", filepath.Base(gen), store.Checksum(out))
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
}

func wantCorrupt(t *testing.T, dir, label string) {
	t.Helper()
	ix, err := Load(dir)
	if err == nil {
		ix.Close()
		t.Fatalf("%s: Load succeeded", label)
	}
	if !IsCorrupt(err) {
		t.Fatalf("%s: err = %v, want CorruptError", label, err)
	}
}

// TestLoadRejectsBadSections: off and len come from a file, so every way
// they can fail to tile the pack is a CorruptError naming the manifest, found
// before anything is sliced — never a panic, never a table cut from the
// wrong bytes.
func TestLoadRejectsBadSections(t *testing.T) {
	// savedDir's manifest: objects car, human; actions jumping — sections
	// 0, 1, 2 of the pack in that order.
	cases := map[string]func(*manifest){
		"negative offset": func(m *manifest) { m.Objects[0].Off = -1 },
		"negative length": func(m *manifest) { m.Objects[1].Len = -m.Objects[1].Len },
		// Off stays in the pack (it is > 0); off+len wraps negative.
		"sum overflows": func(m *manifest) { m.Actions[0].Len = math.MaxInt64 },
		"both huge":     func(m *manifest) { m.Actions[0].Off, m.Actions[0].Len = math.MaxInt64, math.MaxInt64 },
		"past the end":  func(m *manifest) { m.Actions[0].Len++ },
		"offset beyond": func(m *manifest) { m.Actions[0].Off = 1 << 40 },
		"overlap":       func(m *manifest) { m.Objects[1].Off--; m.Objects[1].Len++ },
		"same section twice": func(m *manifest) {
			m.Objects[1].Off, m.Objects[1].Len = m.Objects[0].Off, m.Objects[0].Len
		},
		"gap between sections": func(m *manifest) { m.Objects[0].Len-- },
		"gap at the start":     func(m *manifest) { m.Objects[0].Off++; m.Objects[0].Len-- },
		"uncovered tail":       func(m *manifest) { m.Actions[0].Len-- },
		"no sections at all":   func(m *manifest) { m.Objects, m.Actions = nil, nil },
		"swapped section order": func(m *manifest) {
			a, b := &m.Objects[0], &m.Objects[1]
			a.Off, a.Len, b.Off, b.Len = b.Off, b.Len, a.Off, a.Len
		},
	}
	for label, mutate := range cases {
		dir := savedDir(t)
		rewriteManifest(t, dir, mutate)
		_, err := Load(dir)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want CorruptError", label, err)
		}
		if filepath.Base(ce.Path) != manifestFile {
			t.Errorf("%s: error blames %s, want the manifest: %v", label, ce.Path, err)
		}
	}

	// Sections that tile the pack but on the wrong boundaries get past the
	// manifest check and die in the table verifier.
	dir := savedDir(t)
	rewriteManifest(t, dir, func(m *manifest) { m.Objects[0].Len--; m.Objects[1].Off--; m.Objects[1].Len++ })
	wantCorrupt(t, dir, "shifted boundary")
}

// TestLoadRejectsBadSequences (satellite): negative, reversed, and
// clip-space-exceeding individual sequences must not reach query results.
func TestLoadRejectsBadSequences(t *testing.T) {
	cases := map[string][2]int{
		"negative start": {-1, 3},
		"reversed":       {5, 2},
		"past the end":   {10, 60},
	}
	for label, seq := range cases {
		dir := savedDir(t)
		rewriteManifest(t, dir, func(m *manifest) { m.Actions[0].Seqs[0] = seq })
		wantCorrupt(t, dir, label)
	}
}

// TestLoadRejectsStructuralDamage: format, clip-space, span, and duplicate
// violations all surface as CorruptError.
func TestLoadRejectsStructuralDamage(t *testing.T) {
	cases := map[string]func(*manifest){
		"wrong format":   func(m *manifest) { m.Format = 1 },
		"future format":  func(m *manifest) { m.Format = manifestFormat + 1 },
		"negative clips": func(m *manifest) { m.NumClips = -4 },
		"duplicate type": func(m *manifest) { m.Objects = append(m.Objects, m.Objects[0]) },
		"span out of range": func(m *manifest) {
			m.Spans = []manifestSpan{{VideoID: "v", Start: 50, Clips: 20}}
		},
		"overlapping spans": func(m *manifest) {
			m.Spans = []manifestSpan{{VideoID: "a", Start: 0, Clips: 10}, {VideoID: "b", Start: 5, Clips: 10}}
		},
		"type mismatch": func(m *manifest) {
			m.Objects[0].Type, m.Objects[1].Type = m.Objects[1].Type, m.Objects[0].Type
		},
	}
	for label, mutate := range cases {
		dir := savedDir(t)
		rewriteManifest(t, dir, mutate)
		wantCorrupt(t, dir, label)
	}
}

// TestLoadRejectsTamperedFiles: damage that the checksums (rather than the
// structural validation) must catch.
func TestLoadRejectsTamperedFiles(t *testing.T) {
	flip := func(t *testing.T, path string, off int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[(off%len(data)+len(data))%len(data)] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("manifest bit flip", func(t *testing.T) {
		dir := savedDir(t)
		flip(t, filepath.Join(liveGen(t, dir), manifestFile), 40)
		wantCorrupt(t, dir, "manifest flip")
	})
	t.Run("table bit flip", func(t *testing.T) {
		dir := savedDir(t)
		flip(t, filepath.Join(liveGen(t, dir), packFile), 100)
		wantCorrupt(t, dir, "table flip")
	})
	t.Run("table truncated", func(t *testing.T) {
		dir := savedDir(t)
		path := filepath.Join(liveGen(t, dir), packFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, "pack truncation")
	})
	t.Run("pack missing", func(t *testing.T) {
		dir := savedDir(t)
		if err := os.Remove(filepath.Join(liveGen(t, dir), packFile)); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, "missing pack")
	})
	t.Run("malformed CURRENT", func(t *testing.T) {
		dir := savedDir(t)
		if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("gibberish\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, "CURRENT")
	})
	t.Run("CURRENT points at missing generation", func(t *testing.T) {
		dir := savedDir(t)
		record := fmt.Sprintf("%s crc32=%08x\n", genName(99), uint32(0))
		if err := os.WriteFile(filepath.Join(dir, currentFile), []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, "dangling CURRENT")
	})
	t.Run("legacy layout", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"name":"x"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, dir, "legacy")
	})
}

func TestFsck(t *testing.T) {
	root := t.TempDir()
	repo, err := OpenRepository(root)
	if err != nil {
		t.Fatal(err)
	}
	a := buildIndex(t, 40, 3, []int{2, 3})
	a.Name = "alpha"
	b := buildIndex(t, 50, 4, []int{4})
	b.Name = "beta"
	if err := repo.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(b); err != nil {
		t.Fatal(err)
	}
	repo.Close()

	reports, err := FsckRepository(root)
	if err != nil {
		t.Fatalf("clean repository failed fsck: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}

	// An uncommitted generation is a warning, not a failure.
	if err := os.MkdirAll(filepath.Join(root, "alpha", genName(99)), 0o755); err != nil {
		t.Fatal(err)
	}
	reports, err = FsckRepository(root)
	if err != nil {
		t.Fatalf("fsck failed on crash debris: %v", err)
	}
	warned := false
	for _, rep := range reports {
		warned = warned || len(rep.Warnings) > 0
	}
	if !warned {
		t.Error("uncommitted generation produced no warning")
	}

	// Corrupting one member fails the check but still reports the other.
	tblPath := filepath.Join(liveGen(t, filepath.Join(root, "beta")), packFile)
	data, err := os.ReadFile(tblPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(tblPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err = FsckRepository(root)
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("err = %v, want CorruptError", err)
	}
	if !strings.Contains(err.Error(), "beta") {
		t.Errorf("error does not name the corrupt member: %v", err)
	}
	if len(reports) != 1 || !strings.Contains(reports[0].Dir, "alpha") {
		t.Errorf("healthy member missing from reports: %v", reports)
	}
}

func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")

	cp := OpenCheckpoint(path, "movies|0.25|42")
	if cp.Resumed() || cp.Done("video:a") {
		t.Fatal("fresh checkpoint reports progress")
	}
	if err := cp.MarkDone("video:a"); err != nil {
		t.Fatal(err)
	}
	if err := cp.MarkDone("video:b"); err != nil {
		t.Fatal(err)
	}

	re := OpenCheckpoint(path, "movies|0.25|42")
	if !re.Resumed() || !re.Done("video:a") || !re.Done("video:b") || re.Count() != 2 {
		t.Fatal("reopen lost progress")
	}

	// A different fingerprint discards the checkpoint.
	other := OpenCheckpoint(path, "movies|0.5|42")
	if other.Resumed() || other.Count() != 0 {
		t.Fatal("fingerprint mismatch not discarded")
	}

	// A corrupt file is discarded, not fatal.
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if cp := OpenCheckpoint(path, "movies|0.25|42"); cp.Resumed() {
		t.Fatal("corrupt checkpoint resumed")
	}

	// Finish removes the file; finishing twice is fine.
	if err := re.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := re.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("checkpoint file survived Finish")
	}
}
