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
// Stream — and the environment that runs statements over it. Two videos
// run 180 clips and three 36 to 48, so an SVAQD fleet samples some videos'
// bootstrap prefix and not others'.
func fleetWorld(t *testing.T) ([]detect.TruthVideo, Env) {
	t.Helper()
	var vids []detect.TruthVideo
	byID := map[string]detect.TruthVideo{}
	for i, frames := range []int{9_000, 2_400, 1_800, 9_000, 2_100} {
		v, err := synth.Generate(synth.Script{
			ID: fmt.Sprintf("fleet-%d", i), Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(31 + i),
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

// bootstrapRing is the length, in clips, of the SVAQD quantile gate's ring
// (core's robustWindowClips): only an SVAQD run longer than it samples its
// bootstrap prefix.
const bootstrapRing = 48

// fullFlags runs p over each video alone under NoShortCircuit, which
// evaluates every atom on every clip in full, and returns each video's
// flagged set: every clip holding a unit that fails for good.
func fullFlags(t *testing.T, p sqlq.Plan, algo string, env Env, vids []detect.TruthVideo) []video.IntervalSet {
	t.Helper()
	env.Engine.NoShortCircuit = true
	flags := make([]video.IntervalSet, len(vids))
	for i, v := range vids {
		env.Videos = func(string) ([]detect.TruthVideo, error) { return []detect.TruthVideo{v}, nil }
		_, fr, err := ExecuteFleet(context.Background(), p, algo, env, core.FleetOptions{Workers: 1})
		if err != nil || len(fr.Videos) != 1 || fr.Videos[0].Err != nil {
			t.Fatalf("%s %s under NoShortCircuit: %v", algo, v.ID(), err)
		}
		flags[i] = fr.Videos[0].Result.Flagged
	}
	return flags
}

// TestExecuteFleetMatchesExecute: over a basic and an OR-group online
// statement, under SVAQD and SVAQ, at one and four workers, every video of
// ExecuteFleet — long and short, with and without a sampled bootstrap —
// answers the sequences Execute answers for that video alone. It flags as
// many clips under a pinned plan, and under the adaptive one on an SVAQD
// video that keeps its bootstrap. Elsewhere under the adaptive plan the
// run short-circuits clips the bootstrap would have scanned in full, and
// which atoms reach a permanently failing unit there depends on the
// evaluation order, which a fleet's shared planner sets differently from a
// video's own. Everywhere the fleet flags only clips that a run evaluating
// every atom in full flags too.
func TestExecuteFleetMatchesExecute(t *testing.T) {
	vids, env := fleetWorld(t)
	statements := map[string]string{
		"basic": `SELECT MERGE(clipID) AS s FROM (PROCESS fleet PRODUCE clipID) WHERE act='jumping' AND obj.include('human', 'car')`,
		"cnf":   `SELECT MERGE(clipID) AS s FROM (PROCESS fleet PRODUCE clipID) WHERE (act='jumping' OR act='dancing') AND obj.include('human')`,
	}
	for _, algo := range []struct {
		name string
		mode core.Mode
	}{{"svaqd", core.Dynamic}, {"svaq", core.Static}} {
		for _, pinned := range []bool{false, true} {
			env := env
			env.Engine.DeclaredOrder = pinned
			for stmtName, sql := range statements {
				name := fmt.Sprintf("%s/%s/pinned=%v", algo.name, stmtName, pinned)
				p := planOf(t, sql)
				if !p.Online || p.Extended != (stmtName == "cnf") {
					t.Fatalf("%s: plan online=%v extended=%v", name, p.Online, p.Extended)
				}
				want := make([]*Answer, len(vids))
				sequences, flagged := 0, 0
				for i, v := range vids {
					one := p
					one.Source = v.ID()
					ans, err := Execute(context.Background(), one, algo.name, env)
					if err != nil {
						t.Fatalf("%s %s: %v", name, v.ID(), err)
					}
					want[i] = ans
					sequences, flagged = sequences+len(ans.Sequences), flagged+ans.FlaggedClips
				}
				if sequences == 0 || flagged == 0 {
					t.Fatalf("%s: %d sequences and %d flagged clips; the comparison pins too little", name, sequences, flagged)
				}
				full := fullFlags(t, p, algo.name, env, vids)
				for _, workers := range []int{1, 4} {
					mode, fr, err := ExecuteFleet(context.Background(), p, algo.name, env, core.FleetOptions{Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if mode != algo.mode || len(fr.Videos) != len(vids) {
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
						if extra := vr.Result.Flagged.Subtract(full[i]); !extra.Empty() {
							t.Errorf("%s workers=%d %s: flagged %v, which a full evaluation does not", name, workers, vr.ID, extra)
						}
						if got := vr.Result.Flagged.TotalLen(); got != want[i].FlaggedClips && (pinned || algo.mode == core.Dynamic && want[i].NumClips > bootstrapRing) {
							t.Errorf("%s workers=%d %s: %d flagged clips, alone %d", name, workers, vr.ID, got, want[i].FlaggedClips)
						}
					}
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
