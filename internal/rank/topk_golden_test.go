package rank

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// testdata/topk.golden was captured at the commit *before* the TBClip
// iterator's map-scan bookkeeping was replaced by heaps and dense clip
// state; the replacement must reproduce it byte for byte — sequences,
// bounds, access counts, rounds, truncation and the residual bound alike.
// Regenerate only when a ranked answer or its paper cost is meant to move:
// go test ./internal/rank -run TopKGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/rank/testdata/topk.golden from the current code")

// goldenTopKIndex merges four short synthetic videos into one repository
// index: enough candidate sequences that k = 25 still truncates, on a clip
// space with the inter-video gaps of a real repository.
func goldenTopKIndex(t *testing.T) *Index {
	t.Helper()
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 5), detect.NewActionRecognizer(detect.I3D, 5))
	var members []*Index
	for i := 0; i < 4; i++ {
		v, err := synth.Generate(synth.Script{
			ID: fmt.Sprintf("golden-%d", i), Frames: 40_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(101 + i),
			Actions: []synth.ActionSpec{
				{Name: "jumping", MeanGapShots: 60, MeanDurShots: 25},
				{Name: "talking", MeanGapShots: 50, MeanDurShots: 12},
			},
			Objects: []synth.ObjectSpec{
				{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.9},
				{Name: "car", MeanGapFrames: 3000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.7},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Ingest(context.Background(), v, models, PaperScoring(), DefaultIngestConfig())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, ix)
	}
	merged, err := Merge("golden", members)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func TestTopKGolden(t *testing.T) {
	ix := goldenTopKIndex(t)
	ctx := context.Background()
	basic := core.Query{Objects: []string{"human"}, Action: "jumping"}
	either := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ActionAtom("talking")}},
		{Atoms: []core.Atom{core.ObjectAtom("human")}},
	}}
	// "dancing" was never ingested: the shard variant drops it from its
	// OR-group.
	absent := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ActionAtom("dancing")}},
		{Atoms: []core.Atom{core.ObjectAtom("human"), core.ObjectAtom("car")}},
	}}
	runs := []struct {
		name string
		run  func(k int) (*Result, error)
	}{
		{"RVAQ", func(k int) (*Result, error) { return RVAQ(ctx, ix, basic, k, Options{}) }},
		{"RVAQ-noSkip", func(k int) (*Result, error) { return RVAQ(ctx, ix, basic, k, Options{NoSkip: true}) }},
		{"ApproxScores", func(k int) (*Result, error) { return RVAQ(ctx, ix, basic, k, Options{ApproxScores: true}) }},
		{"RVAQCNF", func(k int) (*Result, error) { return RVAQCNF(ctx, ix, either, k, Options{}) }},
		{"RVAQCNFShard", func(k int) (*Result, error) { return RVAQCNFShard(ctx, ix, absent, k, Options{}) }},
	}
	var sb strings.Builder
	for _, r := range runs {
		for _, k := range []int{1, 5, 10, 25} {
			res, err := r.run(k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", r.name, k, err)
			}
			fmt.Fprintf(&sb, "%s k=%d %s\n", r.name, k, snapshotTopK(res))
		}
	}
	got := sb.String()

	const path = "testdata/topk.golden"
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<eof>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("topk.golden drifted at line %d:\n got %s\nwant %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("topk.golden drifted: got %d lines, want %d", len(gl), len(wl))
}
