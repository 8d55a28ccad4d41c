package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// testVideoThreeObjects is testVideo with a third, uncorrelated object so
// every 3-object predicate permutation can be exercised.
func testVideoThreeObjects(seed int64, frames int) (*synth.Video, error) {
	return synth.Generate(synth.Script{
		ID:       "core-test-3obj",
		Frames:   frames,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     seed,
		Actions:  []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			{Name: "car", MeanGapFrames: 4000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.75},
			{Name: "dog", MeanGapFrames: 6000, MeanDurFrames: 400},
		},
	})
}

// permutations returns every ordering of xs (Heap's algorithm).
func permutations[T any](xs []T) [][]T {
	var out [][]T
	var rec func(k int, a []T)
	rec = func(k int, a []T) {
		if k == 1 {
			out = append(out, append([]T(nil), a...))
			return
		}
		for i := 0; i < k; i++ {
			rec(k-1, a)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	rec(len(xs), append([]T(nil), xs...))
	return out
}

// invariantSignature reduces a result to the parts the refactor's
// correctness contract pins: the result sequences, the flagged set, and
// each predicate's final critical value and background estimate. Evaluation
// counts and raw-indicator coverage legitimately vary with the order.
func invariantSignature(t *testing.T, res *Result) string {
	t.Helper()
	s := fmt.Sprintf("seq=%v flagged=%v processed=%d", res.Sequences, res.Flagged, res.Processed)
	// Predicates sorted by name so declared order drops out.
	preds := append([]PredicateStats(nil), res.Predicates...)
	sort.Slice(preds, func(i, j int) bool { return preds[i].Name < preds[j].Name })
	for _, ps := range preds {
		s += fmt.Sprintf(" %s{k=%d p=%v}", ps.Name, ps.Critical, ps.Background)
	}
	return s
}

// cnfOrderings returns q under every clause order × every atom order within
// each clause — every declared (first-appearance) order the query can be
// written in.
func cnfOrderings(q CNF) []CNF {
	var out []CNF
	for _, clauses := range permutations(q.Clauses) {
		qs := []CNF{{}}
		for _, c := range clauses {
			var next []CNF
			for _, atoms := range permutations(c.Atoms) {
				for _, prefix := range qs {
					next = append(next, CNF{Clauses: append(slices.Clip(prefix.Clauses), Clause{Atoms: atoms})})
				}
			}
			qs = next
		}
		out = append(out, qs...)
	}
	return out
}

// invariantCNFs are the extended shapes the invariance suites cover: an
// OR-group, an atom shared by two clauses, and a relation.
func invariantCNFs() map[string]CNF {
	return map[string]CNF{
		"or-group": {Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human")}},
		}},
		"shared-atom": {Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
			{Atoms: []Atom{ObjectAtom("car"), ObjectAtom("dog")}},
		}},
		"relation": {Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
			{Atoms: []Atom{ObjectAtom("car")}},
		}},
	}
}

// checkCNFInvariance runs every ordering of every invariantCNF, adaptive and
// pinned, under SVAQ and SVAQD over models(seed), and requires the signature
// of the same engine over the accurate models in the written order.
func checkCNFInvariance(t *testing.T, models func(int64) detect.Models) {
	v := extTestVideoFrames(t, 23, 15_000)
	for name, q := range invariantCNFs() {
		for _, mk := range []struct {
			name string
			mk   func(detect.Models, Config) (*Engine, error)
		}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
			ref, err := mk.mk(noisyModels(7), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.RunCNF(context.Background(), v, q)
			if err != nil {
				t.Fatal(err)
			}
			if refRes.Sequences.Empty() {
				t.Fatalf("%s: no result sequences; the suite would pin nothing", name)
			}
			want := invariantSignature(t, refRes)
			for _, ordering := range cnfOrderings(q) {
				for _, declared := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.DeclaredOrder = declared
					e, err := mk.mk(models(7), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.RunCNF(context.Background(), v, ordering)
					if err != nil {
						t.Fatal(err)
					}
					if got := invariantSignature(t, res); got != want {
						t.Errorf("%s %s written as %s declared=%v:\n got %s\nwant %s", name, mk.name, ordering, declared, got, want)
					}
				}
			}
		}
	}
}

// TestOrderInvarianceCNF extends the contract to extended queries: clip
// truth is an AND of ORs and nothing learns from a short-circuited clip, so
// no way of writing the query — nor the planner's own order — can change
// the result, the flagged set, or any atom's final k_crit and background.
func TestOrderInvarianceCNF(t *testing.T) { checkCNFInvariance(t, noisyModels) }

// TestOrderInvariance is the refactor's correctness contract: because clip
// truth is a pure conjunction and every statistic that feeds back into
// evaluation (SVAQD's background estimators, the planner's cost model) is
// learned only from unbiased fully-evaluated clips, the predicate
// evaluation order — declared, permuted, action-first, or chosen
// adaptively by the planner — cannot change the result sequences, the
// flagged set, or any predicate's final k_crit and background estimate.
func TestOrderInvariance(t *testing.T) {
	v := testVideo(t, 21, 20_000)
	objects := []string{"car", "human"}

	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		var want string
		for _, perm := range permutations(objects) {
			for _, actionFirst := range []bool{false, true} {
				for _, declared := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.ActionFirst = actionFirst
					cfg.DeclaredOrder = declared
					e, err := mk.mk(noisyModels(7), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
					if err != nil {
						t.Fatal(err)
					}
					got := invariantSignature(t, res)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Errorf("%s objects=%v actionFirst=%v declared=%v:\n got %s\nwant %s",
							mk.name, perm, actionFirst, declared, got, want)
					}
				}
			}
		}
	}
}

// TestOrderInvarianceThreeObjects covers all six object permutations on a
// shorter stream, adaptive and pinned, under SVAQD.
func TestOrderInvarianceThreeObjects(t *testing.T) {
	v, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	objects := []string{"car", "human", "dog"}
	var want string
	for _, perm := range permutations(objects) {
		for _, declared := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.DeclaredOrder = declared
			e, err := NewSVAQD(noisyModels(8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("seq=%v flagged=%v", res.Sequences, res.Flagged)
			for _, name := range append(objects, "jumping") {
				ps := res.Predicate(name)
				got += fmt.Sprintf(" %s{k=%d p=%v}", name, ps.Critical, ps.Background)
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("objects=%v declared=%v:\n got %s\nwant %s", perm, declared, got, want)
			}
		}
	}
}
