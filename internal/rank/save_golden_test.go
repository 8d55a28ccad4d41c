package rank

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svqact/internal/store"
)

// testdata/saved_generation.golden holds the sha256 of both files of a saved
// generation for three indexes: one video as Ingest builds it, two videos as
// Merge builds them, and the first one again after a Load, so every producer
// of tables reaches SaveFS. It was captured while SaveFS still decoded every
// row and re-encoded it; a save that copies the images through must write
// the same bytes. Never regenerate it to make it pass; only a deliberate
// change of the on-disk format may:
// go test ./internal/rank -run SavedGenerationGolden -update-golden
func TestSavedGenerationGolden(t *testing.T) {
	one, _ := ingestedTestIndex(t, 20_000, 11)
	two, _ := ingestedTestIndex(t, 12_000, 12)
	two.Name = "rank-test-2"
	merged, err := Merge("merged", []*Index{one, two})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	var sb strings.Builder
	save := func(name string, ix *Index) {
		dir := filepath.Join(root, name)
		if err := Save(dir, ix); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gen := filepath.Join(dir, genName(1))
		for _, file := range []string{packFile, manifestFile} {
			data, err := os.ReadFile(filepath.Join(gen, file))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %s %x\n", name, file, sha256.Sum256(data))
		}
	}
	save("ingested", one)
	save("merged", merged)
	loaded, err := Load(filepath.Join(root, "ingested"))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	save("reloaded", loaded)
	got := sb.String()

	const path = "testdata/saved_generation.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("saved generation drifted from %s:\n got:\n%s want:\n%s", path, got, want)
	}
}

// TestSaveCopiesOnlyTableImages: SaveFS copies each table's image into the
// pack, so a table that is not an open image, or whose image names another
// type, fails the save before anything touches the disk.
func TestSaveCopiesOnlyTableImages(t *testing.T) {
	var st store.Stats
	closed := mustMem(t, "human", []store.Entry{{Clip: 1, Score: 2}})
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]store.Table{
		"wrapped": store.WithStats(mustMem(t, "human", []store.Entry{{Clip: 1, Score: 2}}), &st),
		"renamed": mustMem(t, "car", []store.Entry{{Clip: 1, Score: 2}}),
		"closed":  closed,
	} {
		ix := buildIndex(t, 60, 7, []int{3, 4})
		ix.Objects["human"].Table = tbl
		dir := filepath.Join(t.TempDir(), "member")
		if err := Save(dir, ix); err == nil || !strings.Contains(err.Error(), `"human"`) {
			t.Errorf("%s: Save err = %v, want an error naming the type", name, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the failed save created %s", name, dir)
		}
	}
}
