package rank

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func cnfTestIndex(t *testing.T) *Index {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "cnf-test", Frames: 50_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 41,
		Actions: []synth.ActionSpec{
			{Name: "jumping", MeanGapShots: 110, MeanDurShots: 28},
			{Name: "dancing", MeanGapShots: 140, MeanDurShots: 22},
		},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 320, CorrelatedWith: "jumping", CorrelationProb: 0.9},
			{Name: "car", MeanGapFrames: 2600, MeanDurFrames: 350},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	models := detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 41), detect.NewActionRecognizer(detect.I3D, 41))
	ix, err := Ingest(context.Background(), v, models, PaperScoring(), DefaultIngestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var cnfQueries = []core.CNF{
	// Disjunction of actions with an object.
	{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ActionAtom("dancing")}},
		{Atoms: []core.Atom{core.ObjectAtom("human")}},
	}},
	// Multi-action conjunction.
	{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ActionAtom("dancing")}},
	}},
	// Object disjunction.
	{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("human"), core.ObjectAtom("car")}},
	}},
}

func TestRVAQCNFAgreesWithExhaustive(t *testing.T) {
	ix := cnfTestIndex(t)
	for qi, q := range cnfQueries {
		for _, k := range []int{1, 3, 7} {
			want, err := TruthTopKCNF(ix, q, k, PaperScoring())
			if err != nil {
				t.Fatal(err)
			}
			for _, noSkip := range []bool{false, true} {
				got, err := RVAQCNF(context.Background(), ix, q, k, Options{NoSkip: noSkip})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Sequences) != len(want) {
					t.Fatalf("query %d k=%d noSkip=%v: %d results, want %d",
						qi, k, noSkip, len(got.Sequences), len(want))
				}
				for i := range want {
					if !got.Sequences[i].Exact {
						t.Fatalf("query %d: result %d not exact", qi, i)
					}
					if math.Abs(got.Sequences[i].Lower-want[i].Lower) > 1e-9 {
						t.Fatalf("query %d k=%d: result %d score %v, want %v",
							qi, k, i, got.Sequences[i].Lower, want[i].Lower)
					}
				}
			}
		}
	}
}

func TestPqCNFSemantics(t *testing.T) {
	ix := cnfTestIndex(t)
	// The disjunctive clause's candidates contain each single-atom variant's.
	or := cnfQueries[0]
	pqOr, err := ix.PqCNF(or)
	if err != nil {
		t.Fatal(err)
	}
	single := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("human")}},
	}}
	pqSingle, err := ix.PqCNF(single)
	if err != nil {
		t.Fatal(err)
	}
	if pqSingle.Subtract(pqOr).TotalLen() != 0 {
		t.Error("single-action candidates must be contained in the disjunction's")
	}
	// Basic queries agree between Pq and PqCNF.
	basic := core.Query{Objects: []string{"human"}, Action: "jumping"}
	a, err := ix.Pq(basic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.PqCNF(core.FromQuery(basic))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Pq %v != PqCNF %v for a basic query", a, b)
	}
}

func TestRVAQCNFSkipSavesWork(t *testing.T) {
	ix := cnfTestIndex(t)
	q := cnfQueries[0]
	with, err := RVAQCNF(context.Background(), ix, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RVAQCNF(context.Background(), ix, q, 1, Options{NoSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.Random > without.Stats.Random {
		t.Errorf("skip did not reduce random accesses: %d vs %d",
			with.Stats.Random, without.Stats.Random)
	}
}

func TestRVAQCNFErrors(t *testing.T) {
	ix := cnfTestIndex(t)
	if _, err := RVAQCNF(context.Background(), ix, core.CNF{}, 3, Options{}); err == nil {
		t.Error("empty CNF should fail")
	}
	if _, err := RVAQCNF(context.Background(), ix, cnfQueries[0], 0, Options{}); err == nil {
		t.Error("k=0 should fail")
	}
	rel := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.RelationAtom(detect.Near, "human", "car")}},
	}}
	if _, err := RVAQCNF(context.Background(), ix, rel, 3, Options{}); err == nil {
		t.Error("relation atoms should be rejected offline")
	}
	unknown := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("nope")}},
	}}
	if _, err := RVAQCNF(context.Background(), ix, unknown, 3, Options{}); err == nil {
		t.Error("unknown atom should fail")
	}
}

// TestRVAQCNFShardDropsAbsentAtoms pins the two vocabulary contracts side by
// side: a monolith rejects an OR-group naming an atom it never ingested,
// while a shard answers it exactly as if the absent atom were not written,
// and still reports NotIngestedError once a whole clause is absent.
func TestRVAQCNFShardDropsAbsentAtoms(t *testing.T) {
	ix := cnfTestIndex(t)
	ctx := context.Background()
	withAbsent := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("surfing"), core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("human"), core.ObjectAtom("kite")}},
	}}
	pruned := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("human")}},
	}}
	var miss *NotIngestedError
	if _, err := RVAQCNF(ctx, ix, withAbsent, 5, Options{}); !errors.As(err, &miss) {
		t.Fatalf("monolith: err = %v, want NotIngestedError", err)
	}
	got, err := RVAQCNFShard(ctx, ix, withAbsent, 5, Options{})
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	want, err := RVAQCNF(ctx, ix, pruned, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Sequences) == 0 || !reflect.DeepEqual(got.Sequences, want.Sequences) {
		t.Errorf("shard answer %v, want the pruned query's %v", got.Sequences, want.Sequences)
	}
	absentClause := core.CNF{Clauses: []core.Clause{
		{Atoms: []core.Atom{core.ActionAtom("jumping")}},
		{Atoms: []core.Atom{core.ObjectAtom("kite"), core.ObjectAtom("surfboard")}},
	}}
	if _, err := RVAQCNFShard(ctx, ix, absentClause, 5, Options{}); !errors.As(err, &miss) {
		t.Errorf("shard with a whole clause absent: err = %v, want NotIngestedError", err)
	}
}

func TestCNFScorerMonotone(t *testing.T) {
	s := cnfTableScorer{clauses: [][]int{{0, 1}, {2}}}
	base := s.scoreTables([]float64{1, 2, 3})
	if base != 2*3 {
		t.Fatalf("base = %v, want 6", base)
	}
	// Raising any component never lowers the score.
	if s.scoreTables([]float64{5, 2, 3}) < base {
		t.Error("not monotone in component 0")
	}
	if s.scoreTables([]float64{1, 2, 9}) < base {
		t.Error("not monotone in component 2")
	}
	// A clause with no detected atom zeroes the product.
	if s.scoreTables([]float64{0, 0, 3}) != 0 {
		t.Error("empty clause should zero the score")
	}
}
