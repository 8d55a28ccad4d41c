package core

import (
	"context"
	"fmt"
	"testing"

	"svqact/internal/detect"
)

// An unsampled clip's evaluation stops scoring once count ≥ k_crit is
// decided. The referee is the same engine with Engine.fullScan set, which
// scans every clip in full as the engine did before the stop.

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
func decisionRun(t *testing.T, mk func(detect.Models, Config) (*Engine, error), m detect.Models, cfg Config, shape string, v detect.TruthVideo, fullScan bool) *Result {
	t.Helper()
	e, err := mk(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.fullScan = fullScan
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

// TestSequentialDecisionMatchesFullScan: stopping an unsampled clip's
// evaluation at its decision moves no answer. Over SVAQ and SVAQD, a basic
// query, an OR-group and a relation, the accurate models and their
// cascades, clean and under transient faults the retries absorb, every
// clip's indicator of every atom, every sequence, the flagged set and
// Processed equal the full scan's, and the run costs less.
func TestSequentialDecisionMatchesFullScan(t *testing.T) {
	v := extTestVideoFrames(t, 23, 15_000)
	cfg := DefaultConfig()
	cfg.Retry = detect.RetryConfig{Attempts: 10} // zero BaseDelay: no backoff sleeps in-test
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		for shape := range decisionShapes {
			for _, cascade := range []bool{false, true} {
				for _, fc := range []*detect.FaultConfig{nil, {TransientRate: 0.2, Seed: 39}} {
					name := fmt.Sprintf("%s/%s/cascade=%v/transient=%v", mk.name, shape, cascade, fc != nil)
					m := decisionModels(7, cascade, fc)
					got := decisionRun(t, mk.mk, m, cfg, shape, v, false)
					want := decisionRun(t, mk.mk, m, cfg, shape, v, true)
					if g, w := decisionSignature(got), decisionSignature(want); g != w {
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
