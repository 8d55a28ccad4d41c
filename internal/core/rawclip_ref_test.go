package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// PredicateStats.RawClips replaced RawUnits, the per-unit raw indicators a
// run kept for the whole video, which Table 5 merged to clips. The referee
// is that derivation: score every unit of each sampled clip whose count the
// run reads in full (the clips an evaluation scans in full) the run
// evaluated an atom on directly, keep the units that reach the threshold,
// and merge them to the clips they touch.

// framesToClips maps a frame set to the clips it touches.
func framesToClips(frames video.IntervalSet, g video.Geometry, numClips int) video.IntervalSet {
	var ivs []video.Interval
	for _, iv := range frames.Intervals() {
		ivs = append(ivs, video.Interval{Start: g.ClipOfFrame(iv.Start), End: g.ClipOfFrame(iv.End)})
	}
	return video.NewIntervalSet(ivs...).Clamp(video.Interval{Start: 0, End: numClips - 1})
}

// shotsToClips maps a shot set to the clips it touches.
func shotsToClips(shots video.IntervalSet, g video.Geometry, numClips int) video.IntervalSet {
	var ivs []video.Interval
	for _, iv := range shots.Intervals() {
		ivs = append(ivs, video.Interval{Start: g.ClipOfShot(iv.Start), End: g.ClipOfShot(iv.End)})
	}
	return video.NewIntervalSet(ivs...).Clamp(video.Interval{Start: 0, End: numClips - 1})
}

// sampledByRule is the sample schedule as its rule states it, from the
// run's mode and length alone: every clip under NoShortCircuit, else every
// estimatorSampleEvery-th clip, plus the bootstrap prefix for an SVAQD run
// longer than the gate's ring — the only runs an estimator can read it in.
func sampledByRule(mode Mode, numClips, clip int, all bool) bool {
	if mode == Dynamic && numClips > robustWindowClips {
		return refSampledClip(clip, all)
	}
	return all || clip%estimatorSampleEvery == 0
}

// countedByRule is the full-count rule as its rule states it, from the
// run's mode and length alone: a run reads its sampled clips' counts in full
// under NoShortCircuit, and where an SVAQD estimator can read them — a run
// longer than the gate's ring. Every other run stops each evaluation at its
// decision and reads no count.
func countedByRule(mode Mode, numClips int, all bool) bool {
	return all || (mode == Dynamic && numClips > robustWindowClips)
}

// evaluation is one atom evaluated on one clip, as the evaluated hook saw it.
type evaluation struct {
	atom Atom
	clip int
}

// refRawUnits rescores the units of every evaluated clip — an object's
// frames by FrameScore, an action's shots by their one-unit score, a
// relation's frames by RelationPositives into a real dst — and returns each
// atom's units that reached the threshold, by the atom's name.
func refRawUnits(t *testing.T, models detect.Models, v detect.TruthVideo, evals []evaluation) map[string]video.IntervalSet {
	t.Helper()
	g := v.Geometry()
	raw := map[string][]bool{}
	for _, ev := range evals {
		a, name := ev.atom, ev.atom.String()
		if raw[name] == nil {
			n := v.NumFrames()
			if a.Kind == ActionPredicate {
				n = g.NumShots(n)
			}
			raw[name] = make([]bool, n)
		}
		ind := raw[name]
		switch a.Kind {
		case ObjectPredicate:
			fr := g.FrameRangeOfClip(ev.clip)
			for f := fr.Start; f <= fr.End; f++ {
				ind[f] = ind[f] || models.Objects.FrameScore(v, a.Name, f) >= models.ObjThreshold
			}
		case ActionPredicate:
			sr := g.ShotRangeOfClip(ev.clip)
			for s := sr.Start; s <= sr.End; s++ {
				var score [1]float64
				if _, err := models.Actions.Score(v, a.Name, s, score[:], 0, detect.Need{}, 0); err != nil {
					t.Fatal(err)
				}
				ind[s] = ind[s] || score[0] >= models.ActThreshold
			}
		case RelationPredicate:
			fr := g.FrameRangeOfClip(ev.clip)
			var acc detect.Account
			acc.Reset(1)
			if _, err := detect.RelationPositives(context.Background(), models.Objects, v, detect.Relation(a.Name), a.Args[0], a.Args[1],
				fr, new(detect.Events), new(detect.Events), ind[fr.Start:fr.End+1], detect.RetryConfig{}, &acc); err != nil {
				t.Fatal(err)
			}
		}
	}
	units := map[string]video.IntervalSet{}
	for name, ind := range raw {
		units[name] = video.FromIndicator(ind)
	}
	return units
}

// TestRawClipsMatchReference: on random worlds, long and short, under SVAQ
// and SVAQD, for a basic query, an OR-group and a relation, over the
// accurate models and their cascades, by default and under NoShortCircuit,
// every atom's RawClips is the referee's raw units merged to clips —
// exactly the sampled clips (sampledByRule: every clip under
// NoShortCircuit) whose counts the run reads (countedByRule) on which a unit
// of the atom reached the threshold, and none the run never evaluated the
// atom on. A run that reads no count has no raw clip.
func TestRawClipsMatchReference(t *testing.T) {
	shapes := map[string]func(e *Engine, v detect.TruthVideo) (*Result, error){
		"basic": func(e *Engine, v detect.TruthVideo) (*Result, error) {
			return e.Run(context.Background(), v, Query{Objects: []string{"human", "car"}, Action: "jumping"})
		},
		"cnf": func(e *Engine, v detect.TruthVideo) (*Result, error) {
			return e.RunCNF(context.Background(), v, invariantCNFs()["or-group"])
		},
		"relation": func(e *Engine, v detect.TruthVideo) (*Result, error) {
			return e.RunCNF(context.Background(), v, invariantCNFs()["relation"])
		},
	}
	r := rand.New(rand.NewSource(38))
	// Three 240-clip worlds, and a 40-clip one whose SVAQD runs are too
	// short to sample the bootstrap prefix.
	for _, frames := range []int{12_000, 12_000, 12_000, 2_000} {
		seed := r.Int63n(1 << 30)
		v := extTestVideoFrames(t, seed, frames)
		numClips := v.Geometry().NumClips(v.NumFrames())
		for _, models := range []struct {
			name string
			m    detect.Models
		}{{"accurate", noisyModels(seed)}, {"cascade", cascadeModels(seed)}} {
			for _, mk := range []struct {
				name string
				mode Mode
				mk   func(detect.Models, Config) (*Engine, error)
			}{{"SVAQ", Static, NewSVAQ}, {"SVAQD", Dynamic, NewSVAQD}} {
				for shape, run := range shapes {
					for _, all := range []bool{false, true} {
						name := fmt.Sprintf("seed=%d/%s/%s/%s", seed, models.name, mk.name, shape)
						if all {
							name += "/noShortCircuit"
						}
						t.Run(name, func(t *testing.T) {
							cfg := DefaultConfig()
							cfg.NoShortCircuit = all
							e, err := mk.mk(models.m, cfg)
							if err != nil {
								t.Fatal(err)
							}
							var evals []evaluation
							counted := countedByRule(mk.mode, numClips, all)
							e.hooks = &testHooks{evaluated: func(a Atom, clip, _ int, _ *detect.Account) {
								if counted && sampledByRule(mk.mode, numClips, clip, all) {
									evals = append(evals, evaluation{a, clip})
								}
							}}
							res, err := run(e, v)
							if err != nil {
								t.Fatal(err)
							}
							ref := refRawUnits(t, models.m, v, evals)
							marked := 0
							for _, ps := range res.Predicates {
								toClips := framesToClips
								if ps.Kind == ActionPredicate {
									toClips = shotsToClips
								}
								want := toClips(ref[ps.Name], res.Geometry, res.NumClips)
								if got := ps.RawClips; got.String() != want.String() {
									t.Errorf("%s: RawClips %v, referee %v", ps.Name, got, want)
								}
								marked += ps.RawClips.TotalLen()
							}
							if counted && marked == 0 {
								t.Fatal("no atom marked a raw clip; the referee would pin nothing")
							}
							if !counted && marked != 0 {
								t.Fatalf("%d raw clips in a run that reads no count", marked)
							}
						})
					}
				}
			}
		}
	}
}
