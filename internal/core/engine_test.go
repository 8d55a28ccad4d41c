package core

import (
	"context"
	"math"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/metrics"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func testVideo(t *testing.T, seed int64, frames int) *synth.Video {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID:       "core-test",
		Frames:   frames,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     seed,
		Actions:  []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			{Name: "car", MeanGapFrames: 4000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.75},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func idealModels() detect.Models {
	return detect.NewModels(detect.NewObjectDetector(detect.IdealObject, 0), detect.NewActionRecognizer(detect.IdealAction, 0))
}

func noisyModels(seed int64) detect.Models {
	return detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, seed), detect.NewActionRecognizer(detect.I3D, seed))
}

func TestQueryValidate(t *testing.T) {
	good := Query{Objects: []string{"car", "human"}, Action: "jumping"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Query{
		{Objects: []string{"car"}},                           // no action
		{Objects: []string{"car", "car"}, Action: "jumping"}, // duplicate
		{Objects: []string{""}, Action: "jumping"},           // empty object
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("query %v should be rejected", q)
		}
	}
}

func TestQueryStringAndCanonical(t *testing.T) {
	q := Query{Objects: []string{"human", "car"}, Action: "jumping"}
	if got := q.String(); got != "{o1=human; o2=car; a=jumping}" {
		t.Errorf("String = %q", got)
	}
	if got := (Query{Action: "x"}).String(); got != "{a=x}" {
		t.Errorf("objectless String = %q", got)
	}
	c := q.Canonical()
	if c.Objects[0] != "car" || c.Objects[1] != "human" {
		t.Errorf("Canonical = %v", c)
	}
	if q.Objects[0] != "human" {
		t.Error("Canonical mutated the original")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.HorizonClips = 0.5 },
		func(c *Config) { c.P0Object = -1 },
		func(c *Config) { c.P0Action = 2 },
		func(c *Config) { c.BandwidthFrames = 0 },
		func(c *Config) { c.BandwidthShots = -1 },
		func(c *Config) { c.CritGrid = 0 },
		// NaN compares false with every bound, so each must be rejected
		// explicitly.
		func(c *Config) { c.Alpha = math.NaN() },
		func(c *Config) { c.HorizonClips = math.NaN() },
		func(c *Config) { c.P0Object = math.NaN() },
		func(c *Config) { c.P0Action = math.NaN() },
		func(c *Config) { c.BandwidthFrames = math.NaN() },
		func(c *Config) { c.BandwidthShots = math.NaN() },
		func(c *Config) { c.CritGrid = math.NaN() },
	}
	for i, m := range mutations {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewSVAQ(detect.Models{}, DefaultConfig()); err == nil {
		t.Error("engine without models should be rejected")
	}
	bad := DefaultConfig()
	bad.Alpha = 0
	if _, err := NewSVAQD(idealModels(), bad); err == nil {
		t.Error("bad config should be rejected")
	}
	e, err := NewSVAQ(idealModels(), DefaultConfig())
	if err != nil || e.Mode() != Static || e.Mode().String() != "SVAQ" {
		t.Errorf("SVAQ engine: %v, mode %v", err, e.Mode())
	}
	d, err := NewSVAQD(idealModels(), DefaultConfig())
	if err != nil || d.Mode() != Dynamic || d.Mode().String() != "SVAQD" {
		t.Errorf("SVAQD engine: %v, mode %v", err, d.Mode())
	}
}

func TestRunRejectsBadQuery(t *testing.T) {
	e, _ := NewSVAQD(idealModels(), DefaultConfig())
	if _, err := e.Run(context.Background(), testVideo(t, 1, 10_000), Query{}); err == nil {
		t.Error("bad query should be rejected")
	}
}

func TestIdealModelsHighF1(t *testing.T) {
	v := testVideo(t, 2, 60_000)
	q := Query{Objects: []string{"human", "car"}, Action: "jumping"}
	spec := synth.QuerySpec{Action: q.Action, Objects: q.Objects}
	truth := v.TruthClips(spec, 0)

	for _, mk := range []func(detect.Models, Config) (*Engine, error){NewSVAQ, NewSVAQD} {
		e, err := mk(idealModels(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), v, q)
		if err != nil {
			t.Fatal(err)
		}
		c := metrics.MatchSequences(res.Sequences, truth, metrics.DefaultIoU)
		if f1 := c.F1(); f1 < 0.85 {
			t.Errorf("%v: ideal-model F1 = %v (counts %+v), want >= 0.85", e.Mode(), f1, c)
		}
	}
}

func TestSVAQDRobustToBadPrior(t *testing.T) {
	v := testVideo(t, 3, 60_000)
	q := Query{Objects: []string{"car"}, Action: "jumping"}
	spec := synth.QuerySpec{Action: q.Action, Objects: q.Objects}
	truth := v.TruthClips(spec, 0)

	f1For := func(mk func(detect.Models, Config) (*Engine, error), p0 float64) float64 {
		cfg := DefaultConfig()
		cfg.P0Object, cfg.P0Action = p0, p0
		e, err := mk(noisyModels(9), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), v, q)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.MatchSequences(res.Sequences, truth, metrics.DefaultIoU).F1()
	}

	// With a grossly overestimated background, SVAQ's critical values become
	// unattainable and it returns nothing; SVAQD recovers.
	svaqHigh := f1For(NewSVAQ, 0.9)
	svaqdHigh := f1For(NewSVAQD, 0.9)
	if svaqHigh > 0.1 {
		t.Errorf("SVAQ with p0=0.9 should collapse, got F1 %v", svaqHigh)
	}
	if svaqdHigh < 0.5 {
		t.Errorf("SVAQD with p0=0.9 should recover, got F1 %v", svaqdHigh)
	}
	// SVAQD must be roughly insensitive to the prior across six orders of
	// magnitude.
	lo, hi := f1For(NewSVAQD, 1e-6), f1For(NewSVAQD, 0.3)
	if diff := lo - hi; diff > 0.15 || diff < -0.15 {
		t.Errorf("SVAQD prior sensitivity too high: F1(1e-6)=%v F1(0.3)=%v", lo, hi)
	}
}

func TestShortCircuitSkipsLaterPredicates(t *testing.T) {
	v := testVideo(t, 4, 40_000)
	q := Query{Objects: []string{"car", "human"}, Action: "jumping"}

	// Pinned to the declared order, the exact skipping contract holds: the
	// first declared predicate is never skipped and evaluation counts are
	// non-increasing along the declared order.
	pinned := DefaultConfig()
	pinned.DeclaredOrder = true
	e, _ := NewSVAQD(noisyModels(1), pinned)
	res, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	car, human, act := res.Predicate("car"), res.Predicate("human"), res.Predicate("jumping")
	if car.EvaluatedClips != res.NumClips {
		t.Errorf("first predicate evaluated on %d of %d clips", car.EvaluatedClips, res.NumClips)
	}
	if human.EvaluatedClips > car.EvaluatedClips || act.EvaluatedClips > human.EvaluatedClips {
		t.Errorf("evaluation counts should be non-increasing: %d, %d, %d",
			car.EvaluatedClips, human.EvaluatedClips, act.EvaluatedClips)
	}
	if act.EvaluatedClips == res.NumClips {
		t.Error("action predicate was never skipped; short-circuit seems inactive")
	}
	if res.Plan == nil || res.Plan.Adaptive {
		t.Error("DeclaredOrder run should report a pinned plan")
	}

	// Under the adaptive planner, whichever order it picks must still
	// short-circuit: strictly fewer total evaluations than evaluating every
	// predicate on every clip, with the savings on the plan's ledger.
	ad, _ := NewSVAQD(noisyModels(1), DefaultConfig())
	resAd, err := ad.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ps := range resAd.Predicates {
		total += ps.EvaluatedClips
	}
	if total >= len(resAd.Predicates)*resAd.NumClips {
		t.Errorf("adaptive run never short-circuited: %d evaluations over %d clips", total, resAd.NumClips)
	}
	if resAd.Plan == nil || !resAd.Plan.Adaptive {
		t.Fatal("adaptive run must report an adaptive plan")
	}
	if resAd.Plan.SkippedEvaluations == 0 {
		t.Error("plan reported no short-circuit savings")
	}

	cfg := DefaultConfig()
	cfg.NoShortCircuit = true
	e2, _ := NewSVAQD(noisyModels(1), cfg)
	res2, err := e2.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range res2.Predicates {
		if ps.EvaluatedClips != res2.NumClips {
			t.Errorf("NoShortCircuit: predicate %s evaluated on %d of %d clips",
				ps.Name, ps.EvaluatedClips, res2.NumClips)
		}
	}
}

func TestActionFirstOrdering(t *testing.T) {
	v := testVideo(t, 5, 40_000)
	q := Query{Objects: []string{"car"}, Action: "jumping"}
	cfg := DefaultConfig()
	cfg.ActionFirst = true
	e, _ := NewSVAQD(noisyModels(2), cfg)
	res, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	act, car := res.Predicate("jumping"), res.Predicate("car")
	if act.EvaluatedClips != res.NumClips {
		t.Errorf("action-first: action evaluated on %d of %d clips", act.EvaluatedClips, res.NumClips)
	}
	if car.EvaluatedClips >= res.NumClips {
		t.Errorf("action-first: object should be skipped sometimes, evaluated %d", car.EvaluatedClips)
	}
	// Predicates must still be reported in query order (objects, then action).
	if res.Predicates[0].Name != "car" || res.Predicates[1].Name != "jumping" {
		t.Errorf("report order wrong: %s, %s", res.Predicates[0].Name, res.Predicates[1].Name)
	}
}

func TestMeterCharging(t *testing.T) {
	v := testVideo(t, 6, 20_000)
	fpc := v.Geometry().FramesPerClip()
	numClips := v.Geometry().NumClips(v.NumFrames())

	// Two object predicates must not double-charge object inference.
	var m detect.Meter
	cfg := DefaultConfig()
	cfg.NoShortCircuit = true
	cfg.Meter = &m
	models := noisyModels(3)
	e, _ := NewSVAQD(models, cfg)
	if _, err := e.Run(context.Background(), v, Query{Objects: []string{"car", "human"}, Action: "jumping"}); err != nil {
		t.Fatal(err)
	}
	if got, want := m.ObjectFrames(), int64(numClips*fpc); got != want {
		t.Errorf("object frames charged %d, want %d", got, want)
	}
	if got, want := m.ActionShots(), int64(numClips*v.Geometry().ShotsPerClip); got != want {
		t.Errorf("action shots charged %d, want %d", got, want)
	}

	// With short-circuiting, total priced inference must drop, whichever
	// evaluation order the planner picks.
	var m2 detect.Meter
	cfg2 := DefaultConfig()
	cfg2.Meter = &m2
	models2 := noisyModels(3)
	e2, _ := NewSVAQD(models2, cfg2)
	if _, err := e2.Run(context.Background(), v, Query{Objects: []string{"car", "human"}, Action: "jumping"}); err != nil {
		t.Fatal(err)
	}
	if m2.Cost(models2) >= m.Cost(models) {
		t.Errorf("short-circuit did not reduce priced inference: %v vs %v", m2.Cost(models2), m.Cost(models))
	}
}

func TestStreamingMatchesBatch(t *testing.T) {
	v := testVideo(t, 7, 30_000)
	q := Query{Objects: []string{"car"}, Action: "jumping"}
	e, _ := NewSVAQD(noisyModels(4), DefaultConfig())

	batch, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.NewRun(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumClips() != batch.NumClips {
		t.Fatalf("NumClips mismatch")
	}
	steps := 0
	for run.Step() {
		steps++
		if run.Processed() != steps {
			t.Fatalf("Processed = %d after %d steps", run.Processed(), steps)
		}
	}
	if steps != batch.NumClips {
		t.Fatalf("streamed %d clips, want %d", steps, batch.NumClips)
	}
	if run.Step() {
		t.Error("Step after exhaustion should return false")
	}
	if got, want := run.Sequences().String(), batch.Sequences.String(); got != want {
		t.Errorf("streaming sequences %v != batch %v", got, want)
	}
	if got := run.Result().Sequences.String(); got != batch.Sequences.String() {
		t.Errorf("Result sequences differ: %v", got)
	}
}

func TestPartialResultCoversPrefix(t *testing.T) {
	v := testVideo(t, 8, 30_000)
	q := Query{Objects: []string{"car"}, Action: "jumping"}
	e, _ := NewSVAQD(noisyModels(5), DefaultConfig())
	run, _ := e.NewRun(context.Background(), v, q)
	for i := 0; i < 100; i++ {
		if !run.Step() {
			t.Fatal("stream ended early")
		}
	}
	res := run.Result()
	if sp, ok := res.Sequences.Span(); ok && sp.End >= 100 {
		t.Errorf("partial result references unprocessed clip %d", sp.End)
	}
}

func TestFrameSequencesConversion(t *testing.T) {
	v := testVideo(t, 9, 20_000)
	q := Query{Objects: []string{"human"}, Action: "jumping"}
	e, _ := NewSVAQD(idealModels(), DefaultConfig())
	res, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.FrameSequences()
	fpc := v.Geometry().FramesPerClip()
	if got, want := fs.TotalLen(), res.Sequences.TotalLen()*fpc; got != want {
		t.Errorf("frame sequence length %d, want %d", got, want)
	}
}

func TestDynamicBackgroundTracksReality(t *testing.T) {
	v := testVideo(t, 10, 60_000)
	q := Query{Objects: []string{"car"}, Action: "jumping"}
	models := noisyModels(6)
	// Pin the declared order so the object predicate runs on every clip.
	cfg := DefaultConfig()
	cfg.DeclaredOrder = true
	e, _ := NewSVAQD(models, cfg)
	res, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	// The final background estimate should be near the detector's null
	// (false-positive) rate — the thresholded positive rate of the frames
	// outside the object's true presence, scored directly over every clip's
	// frames — not the 1e-4 prior, and not the much higher mixture rate that
	// includes the events themselves.
	car := res.Predicate("car")
	if car.EvaluatedClips != res.NumClips {
		t.Fatalf("car evaluated on %d of %d clips", car.EvaluatedClips, res.NumClips)
	}
	presence := v.ObjectPresence("car")
	noiseFrames := 0
	for f := 0; f < res.NumClips*v.Geometry().FramesPerClip(); f++ {
		if !presence.Contains(f) && models.Objects.FrameScore(v, "car", f) >= models.ObjThreshold {
			noiseFrames++
		}
	}
	nullFrames := v.NumFrames() - presence.TotalLen()
	rate := float64(noiseFrames) / float64(nullFrames)
	if car.Background < rate/4 || car.Background > rate*4 {
		t.Errorf("background estimate %v far from null rate %v", car.Background, rate)
	}
	if car.Critical <= 0 || car.Critical > v.Geometry().FramesPerClip()+1 {
		t.Errorf("critical value %d out of range", car.Critical)
	}
}

func TestPredicateLookup(t *testing.T) {
	v := testVideo(t, 11, 10_000)
	e, _ := NewSVAQ(idealModels(), DefaultConfig())
	res, err := e.Run(context.Background(), v, Query{Objects: []string{"car"}, Action: "jumping"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicate("car") == nil || res.Predicate("jumping") == nil {
		t.Error("predicate lookup failed")
	}
	if res.Predicate("nope") != nil {
		t.Error("unknown predicate should be nil")
	}
	if res.Predicate("car").Kind != ObjectPredicate || res.Predicate("jumping").Kind != ActionPredicate {
		t.Error("predicate kinds wrong")
	}
}

func TestObjectlessQuery(t *testing.T) {
	// The paper's Table 3 includes queries with zero object predicates.
	v := testVideo(t, 12, 30_000)
	q := Query{Action: "jumping"}
	e, _ := NewSVAQD(idealModels(), DefaultConfig())
	res, err := e.Run(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := v.TruthClips(synth.QuerySpec{Action: "jumping"}, 0)
	c := metrics.MatchSequences(res.Sequences, truth, metrics.DefaultIoU)
	if f1 := c.F1(); f1 < 0.85 {
		t.Errorf("objectless ideal F1 = %v", f1)
	}
}
