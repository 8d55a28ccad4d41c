package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/kernel"
	"svqact/internal/scanstat"
	"svqact/internal/video"
)

// An evaluation whose count nothing reads — every unsampled clip's, and a
// sampled clip's in a run without full counts (countedByRule) — stops
// scoring once count ≥ k_crit is decided. The referee is the same engine
// with the fullScan hook set, which scans every clip in full as the engine
// did before the stop.

// decisionModels is noisyModels(seed), or its distilled cascades, with the
// accurate models optionally fault-injected (a cascade's proxy invokes its
// teacher, so it fails wherever the teacher does).
func decisionModels(seed int64, cascade bool, fc *detect.FaultConfig) detect.Models {
	var obj detect.ObjectDetector = detect.NewObjectDetector(detect.MaskRCNN, seed)
	var act detect.ActionRecognizer = detect.NewActionRecognizer(detect.I3D, seed)
	if fc != nil {
		obj, act = detect.InjectObjectFaults(obj, *fc), detect.InjectActionFaults(act, *fc)
	}
	if cascade {
		obj = detect.NewDistilledObjectCascade(obj, detect.DistilledRCNN, seed)
		act = detect.NewDistilledActionCascade(act, detect.DistilledI3D, seed)
	}
	return detect.NewModels(obj, act)
}

// decisionShapes are the statements the suite runs: a basic query, an
// OR-group and a relation.
var decisionShapes = map[string]func(e *Engine, v detect.TruthVideo) (*Result, error){
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

// decisionRun runs shape over v with a fresh engine, scanning every clip in
// full when fullScan is set.
func decisionRun(t testing.TB, mk func(detect.Models, Config) (*Engine, error), m detect.Models, cfg Config, shape string, v detect.TruthVideo, fullScan bool) *Result {
	t.Helper()
	e, err := mk(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.hooks = &testHooks{fullScan: fullScan}
	res, err := decisionShapes[shape](e, v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// decisionSignature is everything a run answers: its sequences, flagged
// set and clip count, and every atom's indicator on every clip (its Clips),
// critical value, background and evaluated clips.
func decisionSignature(res *Result) string {
	s := fmt.Sprintf("seq=%v flagged=%v processed=%d", res.Sequences, res.Flagged, res.Processed)
	for _, ps := range res.Predicates {
		s += fmt.Sprintf(" %s{clips=%v k=%d p=%v evaluated=%d}", ps.Name, ps.Clips, ps.Critical, ps.Background, ps.EvaluatedClips)
	}
	return s
}

// TestSequentialDecisionMatchesFullScan: stopping an evaluation at its
// decision moves no answer. Over SVAQ and SVAQD, a basic query, an OR-group
// and a relation, the accurate models and their cascades, clean and under
// transient faults the retries absorb, planned and in the declared order,
// every sequence, the flagged set, Processed and every atom's critical
// value and background equal the full scan's, and the run costs less. In
// the declared order so does every clip's indicator of every atom and the
// clips it was evaluated on; a planned run's order follows what its sampled
// evaluations cost, which the full scan's planner observes in full.
func TestSequentialDecisionMatchesFullScan(t *testing.T) {
	v := extTestVideoFrames(t, 23, 15_000)
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		for shape := range decisionShapes {
			for _, cascade := range []bool{false, true} {
				for _, fc := range []*detect.FaultConfig{nil, {TransientRate: 0.2, Seed: 39}} {
					for _, declared := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/cascade=%v/transient=%v/declared=%v", mk.name, shape, cascade, fc != nil, declared)
						cfg := DefaultConfig()
						cfg.Retry = detect.RetryConfig{Attempts: 10} // zero BaseDelay: no backoff sleeps in-test
						cfg.DeclaredOrder = declared
						m := decisionModels(7, cascade, fc)
						got := decisionRun(t, mk.mk, m, cfg, shape, v, false)
						want := decisionRun(t, mk.mk, m, cfg, shape, v, true)
						signature := scheduleSignature
						if declared {
							signature = decisionSignature
						}
						if g, w := signature(got), signature(want); g != w {
							t.Errorf("%s:\n got %s\nwant %s", name, g, w)
						}
						if !want.Flagged.Empty() {
							t.Errorf("%s: the full scan flagged %v; the retries were meant to absorb every fault", name, want.Flagged)
						}
						if want.Sequences.Empty() {
							t.Errorf("%s: no result sequences; the comparison pins nothing", name)
						}
						if got.InferenceCost >= want.InferenceCost {
							t.Errorf("%s: stopping at the decision cost %v, the full scan %v", name, got.InferenceCost, want.InferenceCost)
						}
					}
				}
			}
		}
	}
}

// TestDecisionUnderPermanentFaults: a unit that fails past the clip's
// decision is never reached, so the clip carries its decision instead of
// being flagged. The stopped run's flagged set is a subset of the full
// scan's, every clip flagged only by the full scan holds exactly when it
// does in the fault-free run, and every other clip answers as the full
// scan does.
func TestDecisionUnderPermanentFaults(t *testing.T) {
	v := extTestVideoFrames(t, 23, 15_000)
	cfg := DefaultConfig()
	cfg.FailureBudget = 1
	fc := &detect.FaultConfig{PermanentRate: 0.002, Seed: 40}
	spared := 0
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		for shape := range decisionShapes {
			for _, cascade := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/cascade=%v", mk.name, shape, cascade)
				got := decisionRun(t, mk.mk, decisionModels(7, cascade, fc), cfg, shape, v, false)
				full := decisionRun(t, mk.mk, decisionModels(7, cascade, fc), cfg, shape, v, true)
				clean := decisionRun(t, mk.mk, decisionModels(7, cascade, nil), cfg, shape, v, false)
				if !got.Flagged.Subtract(full.Flagged).Empty() {
					t.Errorf("%s: flagged %v, not a subset of the full scan's %v", name, got.Flagged, full.Flagged)
				}
				for c := 0; c < got.NumClips; c++ {
					want := full
					if full.Flagged.Contains(c) && !got.Flagged.Contains(c) {
						want = clean
						spared++
					}
					if g, w := got.Sequences.Contains(c), want.Sequences.Contains(c); g != w {
						t.Errorf("%s: clip %d holds=%v, want %v", name, c, g, w)
					}
				}
			}
		}
	}
	if spared == 0 {
		t.Fatal("no clip failed past its decision; the suite pins nothing")
	}
}

// FuzzDecisionStopKeepsAnswers: stopping an evaluation at its decision moves
// no answer. The referee is the same engine under fullScan, which scans
// every clip in full. Over fuzzed worlds and run lengths of 1 to 120 clips
// (straddling robustWindowClips), SVAQ and SVAQD, a basic query, an
// OR-group and a relation, the planned and the declared order, the accurate
// models and their cascades, clean, under transient faults the retries
// absorb and under permanent faults:
//   - clean or under transient faults, the run answers the referee's
//     sequences, flagged set, Processed and every atom's critical value and
//     background;
//   - under permanent faults it keeps Processed and the estimates, flags a
//     subset of the referee's flags, and every clip the referee leaves
//     unflagged answers as the referee's does;
//   - under DeclaredOrder with one tier and no permanent fault it costs no
//     more than the referee, and strictly less on a long clean run.
//
// The cost bound stops where it would not hold: a cascade's entry tier and a
// planned order follow the planner's live estimates, which observe what the
// evaluations cost, and a clip stops at its first permanent failure. The
// flags stay a subset in a planned order too: a run that reads no full count
// observes at most 30 sampled clips of its 120, fewer than the planner's
// re-planning cadence (plan.DefaultReplanEvery), so it keeps the referee's
// order; a run that reads full counts observes what the referee does.
func FuzzDecisionStopKeepsAnswers(f *testing.F) {
	for i, n := range []uint8{1, 2, 38, 48, 49, 50, 53, 120, 30, 40, 90, 20} {
		f.Add(int64(61+i), n, i%2 == 0, uint8(i), i%4 >= 2, uint8(i), i%3 == 0)
	}
	shapes := []string{"basic", "cnf", "relation"}
	runs := func(t testing.TB, seed int64, clips uint8, dynamic bool, shape uint8, cascade bool, faults uint8, declared bool) (label string, got, want *Result) {
		n := 1 + int(clips)%120
		v := extTestVideoFrames(t, seed, scheduleFrames(n))
		mk, name := NewSVAQ, "SVAQ"
		if dynamic {
			mk, name = NewSVAQD, "SVAQD"
		}
		var fc *detect.FaultConfig
		switch faults % 3 {
		case 1:
			fc = &detect.FaultConfig{TransientRate: 0.2, Seed: seed}
		case 2:
			fc = &detect.FaultConfig{PermanentRate: 0.002, Seed: seed}
		}
		cfg := DefaultConfig()
		cfg.Retry = detect.RetryConfig{Attempts: 10} // zero BaseDelay: no backoff sleeps in-test
		cfg.FailureBudget = 1                        // a permanent fault flags its clip and aborts nothing
		cfg.DeclaredOrder = declared
		sh := shapes[int(shape)%len(shapes)]
		m := decisionModels(seed, cascade, fc)
		label = fmt.Sprintf("%s/%s/clips=%d/cascade=%v/faults=%d/declared=%v", name, sh, n, cascade, faults%3, declared)
		return label, decisionRun(t, mk, m, cfg, sh, v, false), decisionRun(t, mk, m, cfg, sh, v, true)
	}
	// The cost bound bites: a long clean run of one tier in the declared
	// order stops some evaluation short of its full scan.
	if label, got, want := runs(f, 71, 119, false, 0, false, 0, true); got.InferenceCost >= want.InferenceCost {
		f.Fatalf("%s: stopping at the decision cost %v, the full scan %v", label, got.InferenceCost, want.InferenceCost)
	}
	f.Fuzz(func(t *testing.T, seed int64, clips uint8, dynamic bool, shape uint8, cascade bool, faults uint8, declared bool) {
		label, got, want := runs(t, seed, clips, dynamic, shape, cascade, faults, declared)
		if faults%3 != 2 {
			if g, w := scheduleSignature(got), scheduleSignature(want); g != w {
				t.Errorf("%s:\n got %s\nwant %s", label, g, w)
			}
			if !want.Flagged.Empty() {
				t.Errorf("%s: the referee flagged %v; the retries were meant to absorb every fault", label, want.Flagged)
			}
			if declared && !cascade && got.InferenceCost > want.InferenceCost {
				t.Errorf("%s: stopping at the decision cost %v, the full scan %v", label, got.InferenceCost, want.InferenceCost)
			}
			return
		}
		if g, w := estimateSignature(got), estimateSignature(want); g != w {
			t.Errorf("%s:\n got %s\nwant %s", label, g, w)
		}
		if extra := got.Flagged.Subtract(want.Flagged); !extra.Empty() {
			t.Errorf("%s: flagged %v, which the referee did not", label, extra)
		}
		for c := 0; c < got.NumClips; c++ {
			if g, w := got.Sequences.Contains(c), want.Sequences.Contains(c); !want.Flagged.Contains(c) && g != w {
				t.Errorf("%s: clip %d holds=%v, the referee %v", label, c, g, w)
			}
		}
	})
}

// seededEstimate is an atom's background and critical value before any
// estimator update: its kind's p0 (as a fresh estimator holds it in Dynamic
// mode), and that background's critical value (from the shared grid in
// Dynamic mode).
func seededEstimate(t *testing.T, mode Mode, cfg Config, g video.Geometry, kind PredicateKind) (float64, int) {
	t.Helper()
	w, p0, bw := g.FramesPerClip(), cfg.P0Object, cfg.BandwidthFrames
	if kind == ActionPredicate {
		w, p0, bw = g.ShotsPerClip, cfg.P0Action, cfg.BandwidthShots
	}
	if mode != Dynamic {
		return p0, scanstat.CriticalValue(w, p0, cfg.HorizonClips, cfg.Alpha)
	}
	est, err := kernel.NewEstimator(bw, p0)
	if err != nil {
		t.Fatal(err)
	}
	return est.P(), scanstat.Shared(w, cfg.HorizonClips, cfg.Alpha, cfg.CritGrid).At(est.P())
}

// learnedCount is one count a run fed its estimation machinery.
type learnedCount struct {
	atom        string
	clip, count int
}

// TestDecisionStopPremise guards what stopping sampled evaluations rests on.
// Over random worlds and lengths on both sides of robustWindowClips, SVAQ
// and SVAQD, every query shape, with and without NoShortCircuit, every run
// the full-count rule (countedByRule) leaves without full counts — SVAQ,
// and SVAQD of at most robustWindowClips clips — fires no estimator update,
// even where the fullScan referee reads every count in full; feeds learn no
// count; and ends with every atom's background and critical value at their
// seeded values. Every other run feeds learn exactly the referee's counts,
// and an SVAQD run of robustWindowClips+1 clips is one of them: the rule
// cannot be loosened.
func TestDecisionStopPremise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	lengths := []int{robustWindowClips, robustWindowClips + 1}
	for range 6 {
		lengths = append(lengths, 1+r.Intn(2*robustWindowClips))
	}
	stopped := 0
	for _, n := range lengths {
		seed := r.Int63n(1 << 30)
		v := extTestVideoFrames(t, seed, scheduleFrames(n))
		for _, mk := range []struct {
			name string
			mode Mode
			mk   func(detect.Models, Config) (*Engine, error)
		}{{"SVAQ", Static, NewSVAQ}, {"SVAQD", Dynamic, NewSVAQD}} {
			for shape, run := range decisionShapes {
				for _, all := range []bool{false, true} {
					name := fmt.Sprintf("seed=%d/clips=%d/%s/%s/noShortCircuit=%v", seed, n, mk.name, shape, all)
					cfg := DefaultConfig()
					cfg.NoShortCircuit = all
					ticks := 0
					runWith := func(fullScan bool) (*Result, []learnedCount) {
						e, err := mk.mk(noisyModels(seed), cfg)
						if err != nil {
							t.Fatal(err)
						}
						var learned []learnedCount
						e.hooks = &testHooks{
							fullScan: fullScan,
							ticked:   func(int) { ticks++ },
							learned: func(a Atom, clip, count int) {
								learned = append(learned, learnedCount{a.String(), clip, count})
							},
						}
						res, err := run(e, v)
						if err != nil {
							t.Fatal(err)
						}
						return res, learned
					}
					res, got := runWith(false)
					_, want := runWith(true)
					if countedByRule(mk.mode, n, all) {
						if !slices.Equal(got, want) {
							t.Errorf("%s: learn read %v, the full scan %v", name, got, want)
						}
						if mk.mode == Dynamic && len(got) == 0 {
							t.Errorf("%s: no count reached learn in a run that reads full counts", name)
						}
						continue
					}
					stopped++
					if ticks != 0 {
						t.Errorf("%s: %d estimator updates in a run that reads no full count", name, ticks)
					}
					if len(got) != 0 {
						t.Errorf("%s: %d counts reached learn in a run that reads no full count", name, len(got))
					}
					for _, ps := range res.Predicates {
						if p, k := seededEstimate(t, mk.mode, cfg, res.Geometry, ps.Kind); ps.Background != p || ps.Critical != k {
							t.Errorf("%s: %s ends at p=%v k=%d, seeded p=%v k=%d", name, ps.Name, ps.Background, ps.Critical, p, k)
						}
					}
				}
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no run stops its sampled evaluations; the premise pins nothing")
	}
}
