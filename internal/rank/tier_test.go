package rank

import (
	"context"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// TestOfflineIngestIdenticalUnderCascade: the offline planner's static tier
// choice keeps the recall-complete cascade (or unwraps to its accurate
// tier), and either way ingestion must materialise bit-identical score
// tables and individual sequences to ingesting with the accurate models
// alone — so every offline top-k answer is unchanged.
func TestOfflineIngestIdenticalUnderCascade(t *testing.T) {
	v, err := synth.Generate(synth.Script{
		ID: "rank-tier", Frames: 30_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 23,
		Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.9},
			{Name: "car", MeanGapFrames: 3000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 19
	obj := detect.NewObjectDetector(detect.MaskRCNN, seed)
	act := detect.NewActionRecognizer(detect.I3D, seed)
	accurate, err := Ingest(context.Background(), v, detect.NewModels(obj, act), PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cascaded, err := Ingest(context.Background(), v, detect.NewModels(
		detect.NewDistilledObjectCascade(obj, detect.DistilledRCNN, seed),
		detect.NewDistilledActionCascade(act, detect.DistilledI3D, seed),
	), PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}

	sameTypeIndex := func(kind, typ string, a, b *TypeIndex) {
		t.Helper()
		if a.Seqs.String() != b.Seqs.String() {
			t.Errorf("%s %s: individual sequences differ:\n accurate %v\n cascaded %v", kind, typ, a.Seqs, b.Seqs)
		}
		for c := 0; c < accurate.NumClips; c++ {
			sa, oka, err := a.Table.ScoreOf(c)
			if err != nil {
				t.Fatal(err)
			}
			sb, okb, err := b.Table.ScoreOf(c)
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb || sa != sb {
				t.Fatalf("%s %s clip %d: accurate (%v,%v) vs cascaded (%v,%v)", kind, typ, c, sa, oka, sb, okb)
			}
		}
	}
	for typ, ti := range accurate.Objects {
		sameTypeIndex("object", typ, ti, cascaded.Objects[typ])
	}
	for typ, ti := range accurate.Actions {
		sameTypeIndex("action", typ, ti, cascaded.Actions[typ])
	}

	// Every offline algorithm returns the same top-k from either index.
	q := core.Query{Objects: []string{"car", "human"}, Action: "jumping"}
	for name, algo := range Algorithms {
		a, err := algo(context.Background(), accurate, q, 5, Options{})
		if err != nil {
			t.Fatalf("%s accurate: %v", name, err)
		}
		b, err := algo(context.Background(), cascaded, q, 5, Options{})
		if err != nil {
			t.Fatalf("%s cascaded: %v", name, err)
		}
		if len(a.Sequences) != len(b.Sequences) {
			t.Fatalf("%s: %d vs %d sequences", name, len(a.Sequences), len(b.Sequences))
		}
		for i := range a.Sequences {
			if a.Sequences[i].Seq != b.Sequences[i].Seq || a.Sequences[i].Score() != b.Sequences[i].Score() {
				t.Errorf("%s: top-k entry %d differs: %+v vs %+v", name, i, a.Sequences[i], b.Sequences[i])
			}
		}
	}
}

// TestIngestActionTableUnderFaults: the action tables come from the chain
// walker, which stops at a shot that still fails after retries; ingestion
// resumes after it, so a clip's score is the sum over exactly the shots some
// attempt scored — for a plain fallible recogniser and for a cascade whose
// tiers fault independently (where the accurate tier alone can lose a shot).
func TestIngestActionTableUnderFaults(t *testing.T) {
	v := repoVideo(t, "rank-faulty", 9)
	const seed, attempts = 19, 4
	fc := detect.FaultConfig{TransientRate: 0.3, PermanentRate: 0.02, Seed: 3}
	act := detect.InjectActionFaults(detect.NewActionRecognizer(detect.I3D, seed), fc)
	cheap := detect.InjectActionFaults(detect.NewDistilledActionRecognizer(act, detect.DistilledI3D, seed), fc)
	cfg := DefaultIngestConfig()
	cfg.Core.Retry = detect.RetryConfig{Attempts: attempts} // zero BaseDelay: no backoff sleeps in-test
	cfg.Core.FailureBudget = 1                              // flag, never degrade

	// A shot contributes the accurate model's score iff one of its attempts
	// succeeds (the recall-complete cheap tier never changes a score).
	g := v.Geometry()
	want := make([]float64, g.NumClips(v.NumFrames()))
	lost := 0
	for c := range want {
		sr := g.ShotRangeOfClip(c)
	shots:
		for s := sr.Start; s <= sr.End; s++ {
			for a := 0; a < attempts; a++ {
				score := make([]float64, 1)
				_, err := act.Score(v, "jumping", s, score, 0, detect.Need{}, a)
				if err == nil {
					want[c] += score[0]
					continue shots
				}
				if !detect.IsTransient(err) {
					break
				}
			}
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no shot lost to faults: the resume-after-failure path was not exercised")
	}

	obj := detect.NewObjectDetector(detect.MaskRCNN, seed)
	for name, rec := range map[string]detect.ActionRecognizer{
		"plain": act,
		"cascade": detect.NewActionCascade(
			detect.ActionTier{Recognizer: cheap, Band: detect.RecallBand(), PriorEscalate: detect.DistilledI3D.EscalationPrior(detect.RecallBand())},
			detect.ActionTier{Recognizer: act},
		),
	} {
		ix, err := Ingest(context.Background(), v, detect.NewModels(obj, rec), PaperScoring(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for c, w := range want {
			got, _, err := ix.Actions["jumping"].Table.ScoreOf(c)
			if err != nil {
				t.Fatal(err)
			}
			if got != w {
				t.Fatalf("%s: clip %d scores %v, want %v", name, c, got, w)
			}
		}
	}
}
