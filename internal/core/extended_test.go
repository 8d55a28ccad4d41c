package core

import (
	"context"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/metrics"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func extTestVideo(t *testing.T, seed int64) *synth.Video {
	return extTestVideoFrames(t, seed, 60_000)
}

func extTestVideoFrames(t testing.TB, seed int64, frames int) *synth.Video {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "ext-test", Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: seed,
		Actions: []synth.ActionSpec{
			{Name: "jumping", MeanGapShots: 120, MeanDurShots: 30},
			{Name: "dancing", MeanGapShots: 150, MeanDurShots: 25},
		},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 320, CorrelatedWith: "jumping", CorrelationProb: 0.9},
			{Name: "car", MeanGapFrames: 2500, MeanDurFrames: 400},
			{Name: "dog", MeanGapFrames: 3000, MeanDurFrames: 350},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAtomValidation(t *testing.T) {
	good := []Atom{
		ObjectAtom("car"),
		ActionAtom("jumping"),
		RelationAtom(detect.LeftOf, "human", "car"),
		RelationAtom(detect.Near, "dog", "car"),
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("%v rejected: %v", a, err)
		}
	}
	bad := []Atom{
		{},
		{Kind: ObjectPredicate, Name: "car", Args: []string{"x"}},
		{Kind: RelationPredicate, Name: "hovers_over", Args: []string{"a", "b"}},
		{Kind: RelationPredicate, Name: string(detect.LeftOf), Args: []string{"a"}},
		{Kind: RelationPredicate, Name: string(detect.LeftOf), Args: []string{"a", "a"}},
		{Kind: PredicateKind(9), Name: "x"},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%+v should be rejected", a)
		}
	}
}

func TestCNFValidation(t *testing.T) {
	ok := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
		{Atoms: []Atom{ObjectAtom("car")}},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid CNF rejected: %v", err)
	}
	bad := []CNF{
		{},
		{Clauses: []Clause{{}}},
		{Clauses: []Clause{{Atoms: []Atom{ObjectAtom("car")}}}}, // no action
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad CNF %d accepted", i)
		}
	}
}

func TestCNFString(t *testing.T) {
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("a"), ActionAtom("b")}},
		{Atoms: []Atom{RelationAtom(detect.LeftOf, "x", "y")}},
	}}
	want := "(a OR b) AND left_of(x,y)"
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestFromQueryEquivalence(t *testing.T) {
	// A basic query is the CNF of singleton clauses: Run and RunCNF over the
	// lift are the same loop over the same clause table, so the whole result
	// — sequences, diagnostics, plan report, spend — agrees in the default
	// (short-circuiting, adaptively planned) configuration.
	v := extTestVideo(t, 1)
	q := Query{Objects: []string{"human", "car"}, Action: "jumping"}
	for _, mk := range []func(detect.Models, Config) (*Engine, error){NewSVAQ, NewSVAQD} {
		for _, models := range []detect.Models{noisyModels(3), cascadeModels(3)} {
			eng, err := mk(models, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			basic, err := eng.Run(context.Background(), v, q)
			if err != nil {
				t.Fatal(err)
			}
			ext, err := eng.RunCNF(context.Background(), v, FromQuery(q))
			if err != nil {
				t.Fatal(err)
			}
			// The two results name their query in different fields.
			basic.Query, ext.CNF = Query{}, CNF{}
			if got, want := snapshotResult(ext), snapshotResult(basic); got != want {
				t.Errorf("%v: CNF lift diverged:\nbasic %s\n  cnf %s", eng.Mode(), want, got)
			}
		}
	}
}

func TestRunCNFRejectsBadQuery(t *testing.T) {
	eng, _ := NewSVAQD(idealModels(), DefaultConfig())
	if _, err := eng.RunCNF(context.Background(), extTestVideo(t, 2), CNF{}); err == nil {
		t.Error("empty CNF should be rejected")
	}
}

// truthCNF computes ground-truth frames for a CNF query directly from the
// scripted world.
func truthCNF(v *synth.Video, q CNF) video.IntervalSet {
	g := v.Meta.Geometry
	n := v.NumFrames()
	ind := make([]bool, n)
	for f := 0; f < n; f++ {
		sat := true
		for _, c := range q.Clauses {
			any := false
			for _, a := range c.Atoms {
				switch a.Kind {
				case ObjectPredicate:
					any = any || v.ObjectPresentAt(a.Name, f)
				case ActionPredicate:
					any = any || v.ActionAt(a.Name, g.ShotOfFrame(f))
				case RelationPredicate:
					any = any || detect.TrueRelationAt(v, detect.Relation(a.Name), a.Args[0], a.Args[1], f)
				}
			}
			if !any {
				sat = false
				break
			}
		}
		ind[f] = sat
	}
	return video.FromIndicator(ind)
}

func truthCNFClips(v *synth.Video, q CNF) video.IntervalSet {
	g := v.Meta.Geometry
	frames := truthCNF(v, q)
	ind := make([]bool, v.Meta.NumClips())
	for c := range ind {
		ind[c] = !frames.IntersectSet(video.NewIntervalSet(g.FrameRangeOfClip(c))).Empty()
	}
	return video.FromIndicator(ind)
}

func TestMultipleActionsConjunction(t *testing.T) {
	// Footnote 3: two action atoms in separate clauses = both must occur.
	v := extTestVideo(t, 5)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping")}},
		{Atoms: []Atom{ActionAtom("dancing")}},
	}}
	eng, _ := NewSVAQD(idealModels(), DefaultConfig())
	res, err := eng.RunCNF(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthCNFClips(v, q)
	c := metrics.MatchSequences(res.Sequences, truth, 0.3)
	if truth.TotalLen() > 0 && c.F1() < 0.6 {
		t.Errorf("two-action conjunction F1 = %.2f (%+v, truth %v)", c.F1(), c, truth)
	}
	// The conjunction must be a subset of each single-action query.
	for _, act := range []string{"jumping", "dancing"} {
		single, err := eng.RunCNF(context.Background(), v, CNF{Clauses: []Clause{{Atoms: []Atom{ActionAtom(act)}}}})
		if err != nil {
			t.Fatal(err)
		}
		if extra := res.Sequences.Subtract(single.Sequences); !extra.Empty() {
			t.Errorf("conjunction holds on clips %v where %s alone does not", extra, act)
		}
	}
}

func TestDisjunctionIsUnionLike(t *testing.T) {
	// Footnote 4: (jumping OR dancing) must cover at least everything the
	// individual action queries cover, clip-wise.
	v := extTestVideo(t, 7)
	eng, _ := NewSVAQD(idealModels(), DefaultConfig())
	or, err := eng.RunCNF(context.Background(), v, CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	onlyJ, err := eng.RunCNF(context.Background(), v, CNF{Clauses: []Clause{{Atoms: []Atom{ActionAtom("jumping")}}}})
	if err != nil {
		t.Fatal(err)
	}
	onlyD, err := eng.RunCNF(context.Background(), v, CNF{Clauses: []Clause{{Atoms: []Atom{ActionAtom("dancing")}}}})
	if err != nil {
		t.Fatal(err)
	}
	union := onlyJ.Sequences.Union(onlyD.Sequences)
	missing := union.Subtract(or.Sequences)
	if missing.TotalLen() > 0 {
		t.Errorf("disjunction misses %d clips covered by the single-action queries (%v)",
			missing.TotalLen(), missing)
	}
}

func TestRelationAtomAgainstTruth(t *testing.T) {
	v := extTestVideo(t, 9)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping")}},
		{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
	}}
	eng, _ := NewSVAQD(idealModels(), DefaultConfig())
	res, err := eng.RunCNF(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthCNFClips(v, q)
	// With ideal models the relation indicator is computed from exact
	// detections, so results should track the truth closely at the unit
	// level.
	c := metrics.UnitCounts(res.Sequences, truth)
	if truth.TotalLen() >= 5 && c.F1() < 0.6 {
		t.Errorf("relation query clip F1 = %.2f (%+v), truth clips %d",
			c.F1(), c, truth.TotalLen())
	}
	if rs := res.Predicate("near(human,car)"); rs == nil {
		t.Error("relation atom stats missing")
	} else if rs.Kind != RelationPredicate {
		t.Error("relation atom kind wrong")
	}
}

func TestSharedAtomStateAcrossClauses(t *testing.T) {
	// The same atom in two clauses shares one indicator: it is evaluated at
	// most once per clip, and exactly once per clip when nothing may be
	// skipped.
	v := extTestVideo(t, 11)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
		{Atoms: []Atom{ObjectAtom("car"), ObjectAtom("dog")}},
	}}
	frames := int64(v.NumFrames())
	for _, noShortCircuit := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.NoShortCircuit = noShortCircuit
		var meter detect.Meter
		cfg.Meter = &meter
		eng, _ := NewSVAQD(noisyModels(4), cfg)
		res, err := eng.RunCNF(context.Background(), v, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Predicates) != 3 {
			t.Fatalf("want 3 distinct atoms, got %d", len(res.Predicates))
		}
		skipped := false
		for _, a := range res.Predicates {
			if a.EvaluatedClips > res.NumClips || (noShortCircuit && a.EvaluatedClips != res.NumClips) {
				t.Errorf("noShortCircuit=%v: atom %s evaluated %d times over %d clips", noShortCircuit, a.Name, a.EvaluatedClips, res.NumClips)
			}
			skipped = skipped || a.EvaluatedClips < res.NumClips
		}
		if !noShortCircuit && !skipped {
			t.Error("short-circuiting spared no atom a single clip")
		}
		// Two object atoms: the detector is invoked at most twice per frame
		// however many clauses mention car.
		if got := meter.Attempts(detect.KindObject); got > 2*frames || (noShortCircuit && got != 2*frames) {
			t.Errorf("noShortCircuit=%v: %d object detector invocations over %d frames", noShortCircuit, got, frames)
		}
		if res.Predicate("nope") != nil {
			t.Error("unknown atom lookup should be nil")
		}
	}
}

func TestPositionOfProperties(t *testing.T) {
	seen := map[int]bool{}
	for track := 1; track < 50; track++ {
		prev := -1.0
		for f := 0; f < 2000; f++ {
			x := detect.PositionOf("vid", track, f)
			if x < 0 || x > 1 {
				t.Fatalf("position out of range: %v", x)
			}
			if prev >= 0 {
				// Trajectories are smooth: per-frame movement is small.
				d := x - prev
				if d < -0.02 || d > 0.02 {
					t.Fatalf("track %d jumped %v at frame %d", track, d, f)
				}
			}
			prev = x
		}
		if detect.PositionOf("vid", track, 100) != detect.PositionOf("vid", track, 100) {
			t.Fatal("position not deterministic")
		}
		seen[int(detect.PositionOf("vid", track, 0)*100)] = true
	}
	if len(seen) < 10 {
		t.Error("instance anchors are not diverse")
	}
}

func TestRelationSemantics(t *testing.T) {
	v := extTestVideo(t, 13)
	det := detect.NewObjectDetector(detect.IdealObject, 0)
	checked := 0
	for f := 0; f < v.NumFrames() && checked < 500; f += 11 {
		l := detect.RelationPositive(det, v, detect.LeftOf, "human", "car", f)
		r := detect.RelationPositive(det, v, detect.RightOf, "car", "human", f)
		// left_of(human, car) and right_of(car, human) are the same
		// geometric condition.
		if l != r {
			t.Fatalf("frame %d: left_of/right_of asymmetry", f)
		}
		// With ideal detection, RelationPositive must equal the truth.
		if l != detect.TrueRelationAt(v, detect.LeftOf, "human", "car", f) {
			t.Fatalf("frame %d: ideal relation detection diverges from truth", f)
		}
		if l {
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no co-occurrence frames in this realisation")
	}
}
