package core

import (
	"context"
	"testing"
	"time"

	"svqact/internal/detect"
)

// cascadeModels builds the two-tier distilled cascades over the same
// teachers noisyModels(seed) would return, so the cascade runs are
// comparable unit-for-unit with the accurate-only ones.
func cascadeModels(seed int64) detect.Models {
	return detect.NewModels(
		detect.NewDistilledObjectCascade(detect.NewObjectDetector(detect.MaskRCNN, seed), detect.DistilledRCNN, seed),
		detect.NewDistilledActionCascade(detect.NewActionRecognizer(detect.I3D, seed), detect.DistilledI3D, seed),
	)
}

// TestTierInvariance is the cascade refactor's correctness contract: under
// the recall band the cheap tier never decides a unit the accurate tier
// would have scored differently, so running the cascades — whatever tier
// mode the planner picks, in whatever predicate order — must produce
// bit-identical result sequences, flagged sets, critical values and
// background estimates to running the accurate models alone. Only the
// priced inference cost may (and must) differ. Run under -race in CI.
func TestTierInvariance(t *testing.T) {
	v := testVideo(t, 21, 20_000)
	objects := []string{"car", "human"}

	var refRes *Result
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		// The reference signature comes from the same engine over the
		// accurate models alone.
		ref, err := mk.mk(noisyModels(7), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		refRes, err = ref.Run(context.Background(), v, Query{Objects: objects, Action: "jumping"})
		if err != nil {
			t.Fatal(err)
		}
		want := invariantSignature(t, refRes)
		for _, perm := range permutations(objects) {
			for _, declared := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.DeclaredOrder = declared
				e, err := mk.mk(cascadeModels(7), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
				if err != nil {
					t.Fatal(err)
				}
				if got := invariantSignature(t, res); got != want {
					t.Errorf("%s objects=%v declared=%v:\n got %s\nwant %s", mk.name, perm, declared, got, want)
				}
				if res.Plan != nil {
					if !res.Plan.Tiered {
						t.Errorf("%s: cascade plan must report Tiered", mk.name)
					}
					if res.InferenceCost <= 0 || res.InferenceCost >= refRes.InferenceCost {
						t.Errorf("%s: cascade cost %v not below accurate-only %v", mk.name, res.InferenceCost, refRes.InferenceCost)
					}
				}
			}
		}
	}

	// Single-tier plans must not grow tier fields: the legacy report shape
	// is part of the surface contract (satellite: EXPLAIN/JSON regression).
	if refRes.Plan != nil {
		if refRes.Plan.Tiered || refRes.Plan.Budget != nil {
			t.Error("accurate-only plan must not set Tiered or Budget")
		}
		for _, n := range refRes.Plan.Nodes {
			if n.Tier != "" || n.Tiers != nil {
				t.Errorf("single-model node %s carries tier fields: %+v", n.Name, n)
			}
		}
	}
}

// TestTierInvarianceThreeObjects covers all six permutations of a 3-object
// conjunction under the cascades, adaptive and pinned.
func TestTierInvarianceThreeObjects(t *testing.T) {
	v, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	objects := []string{"car", "human", "dog"}
	ref, err := NewSVAQD(noisyModels(8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), v, Query{Objects: objects, Action: "jumping"})
	if err != nil {
		t.Fatal(err)
	}
	want := invariantSignature(t, refRes)
	for _, perm := range permutations(objects) {
		for _, declared := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.DeclaredOrder = declared
			e, err := NewSVAQD(cascadeModels(8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
			if err != nil {
				t.Fatal(err)
			}
			if got := invariantSignature(t, res); got != want {
				t.Errorf("objects=%v declared=%v:\n got %s\nwant %s", perm, declared, got, want)
			}
		}
	}
}

// TestTierInvarianceCNF: extended queries under the cascades, in every
// written order, match the accurate models alone.
func TestTierInvarianceCNF(t *testing.T) { checkCNFInvariance(t, cascadeModels) }

// TestInferenceBudgetDegradesGracefully: a budget too small for the video
// must not error — the run completes, clips past exhaustion are skipped and
// flagged (outside the failure budget), and the plan carries an honest
// budget block. It holds for every query shape: there is one clip loop, so
// OR-groups and relations are budgeted exactly like the basic conjunction.
func TestInferenceBudgetDegradesGracefully(t *testing.T) {
	v := testVideo(t, 22, 20_000)
	shapes := []struct {
		name string
		run  func(*Engine) (*Result, error)
	}{
		{"conjunction", func(e *Engine) (*Result, error) {
			return e.Run(context.Background(), v, Query{Objects: []string{"car", "human"}, Action: "jumping"})
		}},
		{"or-group", func(e *Engine) (*Result, error) {
			return e.RunCNF(context.Background(), v, CNF{Clauses: []Clause{
				{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
				{Atoms: []Atom{ObjectAtom("human")}},
			}})
		}},
		{"relation", func(e *Engine) (*Result, error) {
			return e.RunCNF(context.Background(), v, CNF{Clauses: []Clause{
				{Atoms: []Atom{ActionAtom("jumping")}},
				{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
			}})
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			run := func(budget time.Duration) *Result {
				cfg := DefaultConfig()
				cfg.InferenceBudget = budget
				e, err := NewSVAQD(cascadeModels(9), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := shape.run(e)
				if err != nil {
					t.Fatalf("budget %v must degrade, not error: %v", budget, err)
				}
				return res
			}
			res := run(500 * time.Millisecond)
			if res.BudgetSkipped == 0 {
				t.Fatal("a 500ms budget on a 20k-frame video must skip clips")
			}
			if res.Processed != v.Geometry().NumClips(v.NumFrames()) {
				t.Errorf("run must process the whole stream (skipping counts), got %d clips", res.Processed)
			}
			if int64(res.Flagged.TotalLen()) < res.BudgetSkipped {
				t.Errorf("skipped clips must be flagged: %d flagged < %d skipped", res.Flagged.TotalLen(), res.BudgetSkipped)
			}
			if res.InferenceCost < 500*time.Millisecond {
				t.Errorf("spend %v below the budget yet clips were skipped", res.InferenceCost)
			}
			b := res.Plan.Budget
			if b == nil {
				t.Fatal("budgeted plan must carry a budget block")
			}
			if !b.Exhausted || b.SkippedClips != res.BudgetSkipped {
				t.Errorf("budget block %+v inconsistent with result (skipped %d)", b, res.BudgetSkipped)
			}
			if b.LimitMS != 500 {
				t.Errorf("budget limit %vms, want 500", b.LimitMS)
			}

			// An ample budget must change nothing: no skips, not exhausted,
			// and the results identical to the unbudgeted run.
			ample, free := run(time.Hour), run(0)
			if ample.BudgetSkipped != 0 || ample.Plan.Budget == nil || ample.Plan.Budget.Exhausted {
				t.Errorf("ample budget must not skip or exhaust: %+v", ample.Plan.Budget)
			}
			if free.Plan.Budget != nil {
				t.Error("unbudgeted plan must omit the budget block")
			}
			ample.Plan.Budget = nil
			if snapshotResult(ample) != snapshotResult(free) {
				t.Error("ample budget changed results vs unbudgeted run")
			}
		})
	}
}

// TestInferenceBudgetValidation: a negative budget is a config error.
func TestInferenceBudgetValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InferenceBudget = -time.Second
	if _, err := NewSVAQD(noisyModels(1), cfg); err == nil {
		t.Fatal("negative inference budget must be rejected")
	}
}
