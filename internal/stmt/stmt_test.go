package stmt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/sqlq"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// fleetWorld is a small synthetic repository — five videos of one script
// family under different seeds, served whole by Videos and one by one by
// Stream — and the environment that runs statements over it.
func fleetWorld(t *testing.T) ([]detect.TruthVideo, Env) {
	t.Helper()
	var vids []detect.TruthVideo
	byID := map[string]detect.TruthVideo{}
	for i := 0; i < 5; i++ {
		v, err := synth.Generate(synth.Script{
			ID: fmt.Sprintf("fleet-%d", i), Frames: 9_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(31 + i),
			Actions: []synth.ActionSpec{
				{Name: "jumping", MeanGapShots: 80, MeanDurShots: 25},
				{Name: "dancing", MeanGapShots: 100, MeanDurShots: 20},
			},
			Objects: []synth.ObjectSpec{
				{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.9},
				{Name: "car", MeanGapFrames: 2500, MeanDurFrames: 400},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		vids = append(vids, v)
		byID[v.ID()] = v
	}
	// Rare permanent faults flag a few clips, so the flagged counts compare
	// something too.
	fc := detect.FaultConfig{PermanentRate: 0.0005, Seed: 3}
	cfg := core.DefaultConfig()
	cfg.FailureBudget = 1
	env := Env{
		Models: detect.NewModels(detect.InjectObjectFaults(detect.NewObjectDetector(detect.MaskRCNN, 7), fc),
			detect.InjectActionFaults(detect.NewActionRecognizer(detect.I3D, 7), fc)),
		Engine: cfg,
		Stream: func(source string) (detect.TruthVideo, error) {
			if v, ok := byID[source]; ok {
				return v, nil
			}
			return nil, fmt.Errorf("unknown source %q", source)
		},
		Videos: func(string) ([]detect.TruthVideo, error) { return vids, nil },
	}
	return vids, env
}

// planOf parses sql and plans it.
func planOf(t *testing.T, sql string) sqlq.Plan {
	t.Helper()
	st, err := sqlq.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExecuteFleetMatchesExecute: over a basic and an OR-group online
// statement, at one and four workers, every video of ExecuteFleet answers
// the sequences and flagged clips Execute answers for that video alone.
func TestExecuteFleetMatchesExecute(t *testing.T) {
	vids, env := fleetWorld(t)
	statements := map[string]string{
		"basic": `SELECT MERGE(clipID) AS s FROM (PROCESS fleet PRODUCE clipID) WHERE act='jumping' AND obj.include('human', 'car')`,
		"cnf":   `SELECT MERGE(clipID) AS s FROM (PROCESS fleet PRODUCE clipID) WHERE (act='jumping' OR act='dancing') AND obj.include('human')`,
	}
	for name, sql := range statements {
		p := planOf(t, sql)
		if !p.Online || p.Extended != (name == "cnf") {
			t.Fatalf("%s: plan online=%v extended=%v", name, p.Online, p.Extended)
		}
		want := make([]*Answer, len(vids))
		sequences, flagged := 0, 0
		for i, v := range vids {
			one := p
			one.Source = v.ID()
			ans, err := Execute(context.Background(), one, "", env)
			if err != nil {
				t.Fatalf("%s %s: %v", name, v.ID(), err)
			}
			want[i] = ans
			sequences, flagged = sequences+len(ans.Sequences), flagged+ans.FlaggedClips
		}
		if sequences == 0 || flagged == 0 {
			t.Fatalf("%s: %d sequences and %d flagged clips; the comparison pins too little", name, sequences, flagged)
		}
		for _, workers := range []int{1, 4} {
			mode, fr, err := ExecuteFleet(context.Background(), p, "", env, core.FleetOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if mode != core.Dynamic || len(fr.Videos) != len(vids) {
				t.Fatalf("%s workers=%d: mode %v over %d videos", name, workers, mode, len(fr.Videos))
			}
			for i, vr := range fr.Videos {
				if vr.Err != nil || vr.ID != vids[i].ID() {
					t.Fatalf("%s workers=%d: video %d is %s with %v", name, workers, i, vr.ID, vr.Err)
				}
				got := ClipSequences(vr.Result.Sequences, vr.Result.Geometry)
				if !reflect.DeepEqual(got, want[i].Sequences) {
					t.Errorf("%s workers=%d %s: sequences %v, alone %v", name, workers, vr.ID, got, want[i].Sequences)
				}
				if got := vr.Result.Flagged.TotalLen(); got != want[i].FlaggedClips {
					t.Errorf("%s workers=%d %s: %d flagged clips, alone %d", name, workers, vr.ID, got, want[i].FlaggedClips)
				}
			}
		}
	}
}

// TestExecuteFleetRefusesRanked: a ranked statement has no per-video
// online answer.
func TestExecuteFleetRefusesRanked(t *testing.T) {
	_, env := fleetWorld(t)
	p := planOf(t, `SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS fleet PRODUCE clipID) WHERE act='jumping' AND obj.include('human') ORDER BY RANK(act, obj) LIMIT 3`)
	if _, fr, err := ExecuteFleet(context.Background(), p, "", env, core.FleetOptions{Workers: 2}); !errors.Is(err, ErrNotOnline) || fr != nil {
		t.Fatalf("ranked statement: result %v err %v, want ErrNotOnline", fr, err)
	}
}
