package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/synth"
)

const rankedOrGroup = `SELECT MERGE(clipID) AS s, RANK(act, obj)
	FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
	WHERE (act='kissing' OR act='talking') AND obj.include('person')
	ORDER BY RANK(act, obj) LIMIT 3`

// TestRankedOrGroup: svq answers a ranked OR-group from an index it ingests
// on the fly and from a saved repository, and both return the exhaustive
// top-k's scores.
func TestRankedOrGroup(t *testing.T) {
	const scale, seed = 0.02, 42
	st, err := sqlq.Parse(rankedOrGroup)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Extended || plan.Online {
		t.Fatalf("statement must plan as a ranked extended query: %+v", plan)
	}

	// The same ingestion svq does, as the reference index and as a repository.
	v := synth.Movies(synth.Options{Scale: scale, Seed: seed}).Video("titanic")
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, seed), detect.NewActionRecognizer(detect.I3D, seed))
	ix, err := rank.Ingest(context.Background(), v, models, rank.PaperScoring(), rank.DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rank.TruthTopKCNF(ix, plan.CNF, plan.K, rank.PaperScoring())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the reference top-k is empty; the test would pin nothing")
	}
	repoDir := t.TempDir()
	repo, err := rank.OpenRepository(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(ix); err != nil {
		t.Fatal(err)
	}
	repo.Close()

	for name, dir := range map[string]string{"index": "", "repo": repoDir} {
		var out bytes.Buffer
		ans, err := run(&out, "EXPLAIN "+rankedOrGroup, "movies", scale, seed, "svaqd", 1e-4, dir, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ans.Sequences) != len(want) {
			t.Fatalf("%s: %d sequences, want %d\n%s", name, len(ans.Sequences), len(want), out.String())
		}
		for i, sq := range ans.Sequences {
			if sq.Score != want[i].Score() {
				t.Errorf("%s: #%d score %v, want %v", name, i+1, sq.Score, want[i].Score())
			}
			if (sq.Video == "titanic") != (dir != "") {
				t.Errorf("%s: #%d resolved to video %q", name, i+1, sq.Video)
			}
		}
		for _, text := range []string{"top-3 for (kissing OR talking) AND person", "EXPLAIN predicate plan"} {
			if !strings.Contains(out.String(), text) {
				t.Errorf("%s: output lacks %q:\n%s", name, text, out.String())
			}
		}
	}
}

// TestOnlineOrGroupExplains: an online OR-group runs through the planner
// like any other query, so EXPLAIN prints its plan and -budget binds it.
func TestOnlineOrGroupExplains(t *testing.T) {
	const q = `EXPLAIN SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
		WHERE (act='blowing_leaves' OR act='mowing_lawn') AND obj.include('car')`
	var out bytes.Buffer
	ans, err := run(&out, q, "youtube", 0.05, 42, "svaqd", 1e-4, "", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Plan == nil || ans.Plan.Budget == nil || !ans.Plan.Budget.Exhausted || ans.FlaggedClips == 0 {
		t.Errorf("a 1ns budget must exhaust and flag clips: plan %+v, flagged %d", ans.Plan, ans.FlaggedClips)
	}
	for _, text := range []string{"EXPLAIN predicate plan", "blowing_leaves", "budget"} {
		if !strings.Contains(out.String(), text) {
			t.Errorf("output lacks %q:\n%s", text, out.String())
		}
	}
}
