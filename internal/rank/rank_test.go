package rank

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/store"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func iv(a, b int) video.Interval { return video.Interval{Start: a, End: b} }

// buildIndex constructs a small in-memory index by hand with full control
// over scores and individual sequences.
func buildIndex(t testing.TB, numClips int, seed int64, seqLens []int) *Index {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ix := &Index{
		Name:     "hand",
		NumClips: numClips,
		Objects:  map[string]*TypeIndex{},
		Actions:  map[string]*TypeIndex{},
	}
	// Lay the candidate sequences down with single-clip gaps.
	var seqs []video.Interval
	pos := 1
	for _, l := range seqLens {
		seqs = append(seqs, iv(pos, pos+l-1))
		pos += l + 1
	}
	if pos > numClips {
		t.Fatalf("numClips %d too small for sequences ending at %d", numClips, pos)
	}
	mkType := func(name string) *TypeIndex {
		var entries []store.Entry
		for c := 0; c < numClips; c++ {
			// Clips inside candidate sequences always score; others score
			// sometimes (they exist in tables but never qualify).
			inSeq := false
			for _, s := range seqs {
				if s.Contains(c) {
					inSeq = true
					break
				}
			}
			if inSeq || r.Float64() < 0.4 {
				entries = append(entries, store.Entry{Clip: c, Score: 0.1 + 10*r.Float64()})
			}
		}
		tbl, err := store.NewMemTable(name, entries)
		if err != nil {
			t.Fatal(err)
		}
		return &TypeIndex{Table: tbl, Seqs: video.NewIntervalSet(seqs...)}
	}
	ix.Objects["car"] = mkType("car")
	ix.Objects["human"] = mkType("human")
	ix.Actions["jumping"] = mkType("jumping")
	return ix
}

var testQuery = core.Query{Objects: []string{"car", "human"}, Action: "jumping"}

func TestScoringFunctions(t *testing.T) {
	g := ProductOfSums{}
	if got := g.OfPredicates([]float64{2, 3}, 4); got != 20 {
		t.Errorf("g = %v, want 20", got)
	}
	if got := g.OfPredicates(nil, 4); got != 4 {
		t.Errorf("objectless g = %v, want 4", got)
	}
	f := Additive{}
	if f.Zero() != 0 || f.Combine(2, 3) != 5 || f.OfClip(7) != 7 || f.Repeat(2.5, 4) != 10 {
		t.Error("Additive behaviour wrong")
	}
	if err := PaperScoring().Validate(); err != nil {
		t.Errorf("paper scoring invalid: %v", err)
	}
	if err := (Scoring{}).Validate(); err == nil {
		t.Error("empty scoring should be invalid")
	}
}

func TestPqIntersection(t *testing.T) {
	ix := &Index{
		Name: "x", NumClips: 100,
		Objects: map[string]*TypeIndex{
			"car": {Table: mustMem(t, "car", nil), Seqs: video.NewIntervalSet(iv(0, 50))},
		},
		Actions: map[string]*TypeIndex{
			"run": {Table: mustMem(t, "run", nil), Seqs: video.NewIntervalSet(iv(30, 80))},
		},
	}
	pq, err := ix.Pq(core.Query{Objects: []string{"car"}, Action: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if pq.String() != video.NewIntervalSet(iv(30, 50)).String() {
		t.Errorf("Pq = %v", pq)
	}
	if _, err := ix.Pq(core.Query{Objects: []string{"nope"}, Action: "run"}); err == nil {
		t.Error("unknown object should error")
	}
	if _, err := ix.Pq(core.Query{Action: "nope"}); err == nil {
		t.Error("unknown action should error")
	}
	if _, err := ix.Pq(core.Query{}); err == nil {
		t.Error("invalid query should error")
	}
}

func mustMem(t *testing.T, name string, entries []store.Entry) *store.DiskTable {
	t.Helper()
	tbl, err := store.NewMemTable(name, entries)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func sameResults(t *testing.T, name string, got []SeqResult, want []SeqResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			// Equal scores may legitimately swap order; accept permutations
			// within score ties.
			if math.Abs(got[i].Score()-want[i].Lower) < 1e-9 {
				continue
			}
			t.Fatalf("%s: result %d = %v (%.4f), want %v (%.4f)",
				name, i, got[i].Seq, got[i].Score(), want[i].Seq, want[i].Lower)
		}
		if !got[i].Exact {
			t.Fatalf("%s: result %d not exact", name, i)
		}
		if math.Abs(got[i].Lower-want[i].Lower) > 1e-9 {
			t.Fatalf("%s: result %d score %v, want %v", name, i, got[i].Lower, want[i].Lower)
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ix := buildIndex(t, 220, seed, []int{4, 9, 2, 14, 6, 3, 8, 5, 11, 2})
		for _, k := range []int{1, 3, 5, 9, 10, 15} {
			want, err := TruthTopK(ix, testQuery, k, PaperScoring())
			if err != nil {
				t.Fatal(err)
			}
			for name, algo := range Algorithms {
				res, err := algo(context.Background(), ix, testQuery, k, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameResults(t, name, res.Sequences, want)
				if res.Candidates != 10 {
					t.Errorf("%s: candidates = %d, want 10", name, res.Candidates)
				}
			}
		}
	}
}

func TestRVAQFewerAccessesThanBaselines(t *testing.T) {
	ix := buildIndex(t, 500, 42, []int{6, 12, 3, 18, 9, 4, 11, 7, 15, 2, 8, 10, 5, 13, 4})
	k := 3
	run := func(name string) *Result {
		res, err := Algorithms[name](context.Background(), ix, testQuery, k, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	rvaq := run("RVAQ")
	noskip := run("RVAQ-noSkip")
	fa := run("FA")
	trav := run("Pq-Traverse")

	if rvaq.Stats.Random > noskip.Stats.Random {
		t.Errorf("RVAQ random accesses %d should not exceed noSkip %d", rvaq.Stats.Random, noskip.Stats.Random)
	}
	if noskip.Stats.Random > fa.Stats.Random {
		t.Errorf("noSkip random accesses %d should not exceed FA %d", noskip.Stats.Random, fa.Stats.Random)
	}
	if rvaq.ClipsScored >= trav.ClipsScored {
		t.Errorf("RVAQ scored %d clips, traverse %d; skip should reduce work at small k",
			rvaq.ClipsScored, trav.ClipsScored)
	}
}

func TestRVAQApproachesTraverseAtMaxK(t *testing.T) {
	ix := buildIndex(t, 300, 7, []int{5, 8, 3, 12, 6, 9})
	kMax := 6
	rvaq, err := RVAQ(context.Background(), ix, testQuery, kMax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trav, err := PqTraverse(context.Background(), ix, testQuery, kMax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rvaq.ClipsScored != trav.ClipsScored {
		t.Errorf("at max k RVAQ must score all candidate clips: %d vs %d",
			rvaq.ClipsScored, trav.ClipsScored)
	}
	sameResults(t, "RVAQ@maxK", rvaq.Sequences, trav.Sequences)
}

func TestRVAQApproxScores(t *testing.T) {
	ix := buildIndex(t, 300, 9, []int{5, 8, 3, 12, 6, 9, 7, 4})
	exact, err := RVAQ(context.Background(), ix, testQuery, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RVAQ(context.Background(), ix, testQuery, 2, Options{ApproxScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if approx.ClipsScored > exact.ClipsScored {
		t.Errorf("approx mode scored more clips (%d) than exact (%d)", approx.ClipsScored, exact.ClipsScored)
	}
	// The approximate winner set must match the exact winner set, and the
	// bounds must bracket the exact scores.
	for _, a := range approx.Sequences {
		found := false
		for _, e := range exact.Sequences {
			if a.Seq == e.Seq {
				found = true
				if a.Lower > e.Lower+1e-9 || a.Upper < e.Lower-1e-9 {
					t.Errorf("bounds [%v,%v] do not bracket exact %v for %v", a.Lower, a.Upper, e.Lower, a.Seq)
				}
			}
		}
		if !found {
			t.Errorf("approx winner %v not in exact winners", a.Seq)
		}
	}
}

func TestTopKDegenerate(t *testing.T) {
	ix := buildIndex(t, 200, 3, []int{4, 6})
	// k exceeding the number of candidates returns all of them.
	res, err := RVAQ(context.Background(), ix, testQuery, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequences) != 2 {
		t.Errorf("got %d sequences, want 2", len(res.Sequences))
	}
	// k <= 0 is rejected.
	for name, algo := range Algorithms {
		if _, err := algo(context.Background(), ix, testQuery, 0, Options{}); err == nil {
			t.Errorf("%s: k=0 should error", name)
		}
	}
	// Queries with no candidates return empty results.
	empty := &Index{
		Name: "e", NumClips: 10,
		Objects: map[string]*TypeIndex{"car": {Table: mustMem(t, "car", nil)}, "human": {Table: mustMem(t, "human", nil)}},
		Actions: map[string]*TypeIndex{"jumping": {Table: mustMem(t, "jumping", nil)}},
	}
	for name, algo := range Algorithms {
		res, err := algo(context.Background(), empty, testQuery, 3, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Sequences) != 0 {
			t.Errorf("%s: empty index returned %d sequences", name, len(res.Sequences))
		}
	}
}

func ingestedTestIndex(t *testing.T, frames int, seed int64) (*Index, *synth.Video) {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "rank-test", Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: seed,
		Actions: []synth.ActionSpec{
			{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30},
			{Name: "talking", MeanGapShots: 50, MeanDurShots: 12},
		},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.9},
			{Name: "car", MeanGapFrames: 3000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.7},
			{Name: "chair", MeanGapFrames: 2500, MeanDurFrames: 300},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, seed), detect.NewActionRecognizer(detect.I3D, seed))
	ix, err := Ingest(context.Background(), v, models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ix, v
}

func TestIngestProducesCoherentIndex(t *testing.T) {
	ix, v := ingestedTestIndex(t, 60_000, 11)
	if ix.Name != "rank-test" || ix.NumClips != 1200 {
		t.Fatalf("index header wrong: %s %d", ix.Name, ix.NumClips)
	}
	for _, typ := range []string{"human", "car", "chair"} {
		ti := ix.Objects[typ]
		if ti == nil {
			t.Fatalf("object %s missing", typ)
		}
		if ti.Table.Len() == 0 {
			t.Errorf("object %s table empty", typ)
		}
	}
	for _, typ := range []string{"jumping", "talking"} {
		if ix.Actions[typ] == nil {
			t.Fatalf("action %s missing", typ)
		}
	}
	// Individual sequences should resemble ground-truth presence: their
	// clip-level overlap must dominate their disagreement.
	truthClips := v.TruthClips(synth.QuerySpec{Action: "jumping"}, 0)
	got := ix.Actions["jumping"].Seqs
	inter := got.IntersectSet(truthClips).TotalLen()
	if inter < truthClips.TotalLen()/2 {
		t.Errorf("jumping sequences cover only %d of %d truth clips", inter, truthClips.TotalLen())
	}
	// Query end-to-end over the ingested index.
	q := core.Query{Objects: []string{"car"}, Action: "jumping"}
	res, err := RVAQ(context.Background(), ix, q, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := TruthTopK(ix, q, 5, PaperScoring())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "ingested RVAQ", res.Sequences, want)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, _ := ingestedTestIndex(t, 30_000, 13)
	dir := t.TempDir()
	if err := Save(dir, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Name != ix.Name || loaded.NumClips != ix.NumClips {
		t.Fatalf("header mismatch after load")
	}
	q := core.Query{Objects: []string{"car", "human"}, Action: "jumping"}
	for name, algo := range Algorithms {
		a, err := algo(context.Background(), ix, q, 4, Options{})
		if err != nil {
			t.Fatalf("%s mem: %v", name, err)
		}
		b, err := algo(context.Background(), loaded, q, 4, Options{})
		if err != nil {
			t.Fatalf("%s disk: %v", name, err)
		}
		if len(a.Sequences) != len(b.Sequences) {
			t.Fatalf("%s: result count differs after reload", name)
		}
		for i := range a.Sequences {
			if a.Sequences[i].Seq != b.Sequences[i].Seq ||
				math.Abs(a.Sequences[i].Score()-b.Sequences[i].Score()) > 1e-9 {
				t.Fatalf("%s: result %d differs after reload", name, i)
			}
		}
		if a.Stats.Random != b.Stats.Random {
			t.Errorf("%s: access counts differ between mem and disk: %d vs %d",
				name, a.Stats.Random, b.Stats.Random)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir should fail to load")
	}
}

func TestMergeOffsetsAndResolve(t *testing.T) {
	a, _ := ingestedTestIndex(t, 20_000, 17)
	bSrc, err := synth.Generate(synth.Script{
		ID: "second", Frames: 15_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 18,
		Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 60, MeanDurShots: 20}},
		Objects: []synth.ObjectSpec{{Name: "car", MeanGapFrames: 2000, MeanDurFrames: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 18), detect.NewActionRecognizer(detect.I3D, 18))
	b, err := Ingest(context.Background(), bSrc, models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge("both", []*Index{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumClips != a.NumClips+1+b.NumClips+1 {
		t.Errorf("merged clip space %d, want %d", merged.NumClips, a.NumClips+b.NumClips+2)
	}
	// Resolution maps global ids back.
	id, local := merged.Resolve(0)
	if id != "rank-test" || local != 0 {
		t.Errorf("Resolve(0) = %s,%d", id, local)
	}
	id, local = merged.Resolve(a.NumClips + 1)
	if id != "second" || local != 0 {
		t.Errorf("Resolve(first of b) = %s,%d", id, local)
	}
	// No sequence crosses the video boundary.
	for typ, ti := range merged.Actions {
		for _, s := range ti.Seqs.Intervals() {
			if s.Contains(a.NumClips) {
				t.Errorf("action %s sequence %v spans the gap clip", typ, s)
			}
		}
	}
	// Merged scores equal per-video scores at shifted positions.
	carA := a.Objects["car"].Table
	carM := merged.Objects["car"].Table
	for i := 0; i < carA.Len(); i += 7 {
		e, err := carA.SortedAt(i)
		if err != nil {
			t.Fatal(err)
		}
		s, ok, err := carM.ScoreOf(e.Clip)
		if err != nil || !ok || s != e.Score {
			t.Fatalf("merged score mismatch at clip %d", e.Clip)
		}
	}
	// Merging a merged index is rejected.
	if _, err := Merge("again", []*Index{merged}); err == nil {
		t.Error("re-merging should be rejected")
	}
}

func TestIngestValidation(t *testing.T) {
	v, err := synth.Generate(synth.Script{
		ID: "tiny", Frames: 5000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 1,
		Actions: []synth.ActionSpec{{Name: "a", MeanGapShots: 30, MeanDurShots: 10}},
		Objects: []synth.ObjectSpec{{Name: "o", MeanGapFrames: 1000, MeanDurFrames: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Ingest(context.Background(), v, detect.Models{}, PaperScoring(), DefaultIngestConfig()); err == nil {
		t.Error("ingest without models should fail")
	}
	models := detect.NewModels(detect.NewObjectDetector(detect.IdealObject, 0), detect.NewActionRecognizer(detect.IdealAction, 0))
	if _, err := Ingest(context.Background(), v, models, Scoring{}, DefaultIngestConfig()); err == nil {
		t.Error("ingest without scoring should fail")
	}
	cfg := DefaultIngestConfig()
	cfg.Tracker = nil // tracking optional
	if _, err := Ingest(context.Background(), v, models, PaperScoring(), cfg); err != nil {
		t.Errorf("ingest without tracker failed: %v", err)
	}
}

func TestTBClipOrdering(t *testing.T) {
	ix := buildIndex(t, 150, 21, []int{4, 7, 3, 9})
	var st store.Stats
	tables, scorer, _, err := ix.queryTables(testQuery, &st, PaperScoring().Clip)
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := ix.Pq(testQuery)
	iter, err := newTBClip(tables, scorer, pq, false)
	if err != nil {
		t.Fatal(err)
	}
	var tops, btms []float64
	seen := map[int]bool{}
	for {
		top, btm, hasTop, hasBtm, ok, err := iter.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if hasTop {
			if seen[top.Clip] {
				t.Fatalf("clip %d returned twice", top.Clip)
			}
			seen[top.Clip] = true
			if !pq.Contains(top.Clip) {
				t.Fatalf("top clip %d outside Pq", top.Clip)
			}
			tops = append(tops, top.Score)
		}
		if hasBtm {
			if seen[btm.Clip] {
				t.Fatalf("clip %d returned twice", btm.Clip)
			}
			seen[btm.Clip] = true
			btms = append(btms, btm.Score)
		}
	}
	if len(seen) != pq.TotalLen() {
		t.Fatalf("iterator returned %d clips, Pq has %d", len(seen), pq.TotalLen())
	}
	for i := 1; i < len(tops); i++ {
		if tops[i] > tops[i-1]+1e-9 {
			t.Fatalf("top scores not non-increasing at %d: %v > %v", i, tops[i], tops[i-1])
		}
	}
	for i := 1; i < len(btms); i++ {
		if btms[i] < btms[i-1]-1e-9 {
			t.Fatalf("bottom scores not non-decreasing at %d", i)
		}
	}
}

func TestTBClipSkip(t *testing.T) {
	ix := buildIndex(t, 150, 23, []int{4, 7, 3, 9})
	var st store.Stats
	tables, scorer, _, _ := ix.queryTables(testQuery, &st, PaperScoring().Clip)
	pq, _ := ix.Pq(testQuery)
	iter, err := newTBClip(tables, scorer, pq, false)
	if err != nil {
		t.Fatal(err)
	}
	skip := pq.Intervals()[1]
	iter.Skip(skip)
	count := 0
	for {
		top, btm, hasTop, hasBtm, ok, err := iter.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if hasTop {
			count++
			if skip.Contains(top.Clip) {
				t.Fatalf("skipped clip %d returned", top.Clip)
			}
		}
		if hasBtm {
			count++
			if skip.Contains(btm.Clip) {
				t.Fatalf("skipped clip %d returned", btm.Clip)
			}
		}
	}
	if count != pq.TotalLen()-skip.Len() {
		t.Errorf("returned %d clips, want %d", count, pq.TotalLen()-skip.Len())
	}
}
