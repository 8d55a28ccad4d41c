package rank

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func repoVideo(t *testing.T, id string, seed int64) *synth.Video {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID: id, Frames: 20_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: seed,
		Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 100, MeanDurShots: 25}},
		Objects: []synth.ObjectSpec{
			{Name: "car", MeanGapFrames: 2500, MeanDurFrames: 350, CorrelatedWith: "jumping", CorrelationProb: 0.8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func repoModels(seed int64) detect.Models {
	return detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, seed), detect.NewActionRecognizer(detect.I3D, seed))
}

var repoQuery = core.Query{Objects: []string{"car"}, Action: "jumping"}

// topK answers repoQuery (k = 3) over the repository's merged index, the
// path every server and shard takes, and returns the index with the result.
func topK(t *testing.T, repo *Repository) (*Result, *Index) {
	t.Helper()
	merged, err := repo.Merged()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RVAQ(context.Background(), merged, repoQuery, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, merged
}

func TestRepositoryLifecycle(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if len(repo.Videos()) != 0 {
		t.Fatal("fresh repository should be empty")
	}
	if _, err := repo.Merged(); err == nil {
		t.Error("empty repository should refuse to merge")
	}

	models := repoModels(1)
	a, err := Ingest(context.Background(), repoVideo(t, "vid-a", 1), models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ingest(context.Background(), repoVideo(t, "vid-b", 2), models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(b); err != nil {
		t.Fatal(err)
	}
	if got := repo.Videos(); len(got) != 2 || got[0] != "vid-a" || got[1] != "vid-b" {
		t.Fatalf("Videos = %v", got)
	}
	if err := repo.Add(a); err == nil {
		t.Error("duplicate member should be rejected")
	}

	res, merged := topK(t, repo)
	if res.Candidates == 0 {
		t.Fatal("merged query found no candidates")
	}
	// Resolution maps merged clips back to member videos.
	vid, local := merged.Resolve(res.Sequences[0].Seq.Start)
	if (vid != "vid-a" && vid != "vid-b") || local < 0 {
		t.Errorf("Resolve = %s, %d", vid, local)
	}

	// Removing a member changes the result set.
	before := res.Candidates
	if err := repo.Remove("vid-b"); err != nil {
		t.Fatal(err)
	}
	if err := repo.Remove("vid-b"); err == nil {
		t.Error("double remove should fail")
	}
	res2, _ := topK(t, repo)
	if res2.Candidates >= before {
		t.Errorf("candidates after removal %d, want < %d", res2.Candidates, before)
	}
	if _, err := os.Stat(filepath.Join(dir, "vid-b")); !os.IsNotExist(err) {
		t.Error("removed member's files should be gone")
	}

	// Reopening from disk reproduces the same answers.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if got := repo2.Videos(); len(got) != 1 || got[0] != "vid-a" {
		t.Fatalf("reopened Videos = %v", got)
	}
	res3, _ := topK(t, repo2)
	if len(res3.Sequences) != len(res2.Sequences) {
		t.Fatalf("reopened result count differs")
	}
	for i := range res3.Sequences {
		if math.Abs(res3.Sequences[i].Score()-res2.Sequences[i].Score()) > 1e-9 {
			t.Errorf("reopened score %d differs", i)
		}
	}
}

func TestRepositoryAddValidation(t *testing.T) {
	repo, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if err := repo.Add(&Index{}); err == nil {
		t.Error("unnamed index should be rejected")
	}
	if err := repo.Add(&Index{Name: "../evil"}); err == nil {
		t.Error("path-escaping name should be rejected")
	}
}

func TestRepositoryIgnoresForeignDirs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "not-an-index"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if len(repo.Videos()) != 0 {
		t.Errorf("foreign content treated as members: %v", repo.Videos())
	}
}

func TestIngestAllParallelMatchesSerial(t *testing.T) {
	models := repoModels(5)
	var vids []detect.TruthVideo
	for i := 0; i < 4; i++ {
		vids = append(vids, repoVideo(t, "p-"+string(rune('a'+i)), int64(10+i)))
	}
	serial, err := IngestAll(context.Background(), "set", vids, models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := IngestAllParallel(context.Background(), "set", vids, models, PaperScoring(), DefaultIngestConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumClips != parallel.NumClips {
		t.Fatalf("clip spaces differ: %d vs %d", serial.NumClips, parallel.NumClips)
	}
	for typ, ti := range serial.Objects {
		pt := parallel.Objects[typ]
		if pt == nil || pt.Table.Len() != ti.Table.Len() || pt.Seqs.String() != ti.Seqs.String() {
			t.Fatalf("object %s differs between serial and parallel ingestion", typ)
		}
		for i := 0; i < ti.Table.Len(); i++ {
			se, serr := ti.Table.SortedAt(i)
			pe, perr := pt.Table.SortedAt(i)
			if serr != nil || perr != nil || se != pe {
				t.Fatalf("object %s row %d differs", typ, i)
			}
		}
	}
	for typ, ti := range serial.Actions {
		pt := parallel.Actions[typ]
		if pt == nil || pt.Seqs.String() != ti.Seqs.String() {
			t.Fatalf("action %s differs between serial and parallel ingestion", typ)
		}
	}
	// Degenerate worker counts fall back safely.
	one, err := IngestAllParallel(context.Background(), "set", vids, models, PaperScoring(), DefaultIngestConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.NumClips != serial.NumClips {
		t.Error("single-worker parallel ingestion diverged")
	}
}
