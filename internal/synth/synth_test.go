package synth

import (
	"math"
	"slices"
	"testing"

	"svqact/internal/video"
)

func testScript(seed int64) Script {
	return Script{
		ID:       "test-video",
		Frames:   6000,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     seed,
		Actions: []ActionSpec{
			{Name: "jumping", MeanGapShots: 30, MeanDurShots: 8},
		},
		Objects: []ObjectSpec{
			{Name: "car", MeanGapFrames: 1500, MeanDurFrames: 200},
			{Name: "human", MeanDurFrames: 150, CorrelatedWith: "jumping", CorrelationProb: 0.9},
		},
	}
}

func TestScriptValidate(t *testing.T) {
	base := testScript(1)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	mutate := func(f func(*Script)) Script {
		s := testScript(1)
		s.Actions = append([]ActionSpec(nil), s.Actions...)
		s.Objects = append([]ObjectSpec(nil), s.Objects...)
		f(&s)
		return s
	}
	bad := []struct {
		name string
		s    Script
	}{
		{"empty id", mutate(func(s *Script) { s.ID = "" })},
		{"zero frames", mutate(func(s *Script) { s.Frames = 0 })},
		{"zero fps", mutate(func(s *Script) { s.FPS = 0 })},
		{"bad geometry", mutate(func(s *Script) { s.Geometry.FramesPerShot = 0 })},
		{"unnamed action", mutate(func(s *Script) { s.Actions[0].Name = "" })},
		{"dup action", mutate(func(s *Script) { s.Actions = append(s.Actions, s.Actions[0]) })},
		{"bad action gap", mutate(func(s *Script) { s.Actions[0].MeanGapShots = 0 })},
		{"unnamed object", mutate(func(s *Script) { s.Objects[0].Name = "" })},
		{"dup object", mutate(func(s *Script) { s.Objects = append(s.Objects, s.Objects[0]) })},
		{"bad duration", mutate(func(s *Script) { s.Objects[0].MeanDurFrames = 0 })},
		{"negative gap", mutate(func(s *Script) { s.Objects[0].MeanGapFrames = -1 })},
		{"no source", mutate(func(s *Script) { s.Objects[0].MeanGapFrames = 0 })},
		{"unknown correlation", mutate(func(s *Script) { s.Objects[1].CorrelatedWith = "nope" })},
		{"bad correlation prob", mutate(func(s *Script) { s.Objects[1].CorrelationProb = 1.5 })},
	}
	for _, c := range bad {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(testScript(7))
	b := MustGenerate(testScript(7))
	if a.ObjectPresence("car").String() != b.ObjectPresence("car").String() {
		t.Error("same seed produced different car presence")
	}
	if a.ActionPresence("jumping").String() != b.ActionPresence("jumping").String() {
		t.Error("same seed produced different action occurrences")
	}
	c := MustGenerate(testScript(8))
	if a.ObjectPresence("car").String() == c.ObjectPresence("car").String() &&
		a.ActionPresence("jumping").String() == c.ActionPresence("jumping").String() {
		t.Error("different seeds produced identical video")
	}
}

func TestGenerateBounds(t *testing.T) {
	v := MustGenerate(testScript(3))
	numShots := v.Meta.Geometry.NumShots(v.NumFrames())
	for _, typ := range v.ObjectTypes() {
		for _, iv := range v.ObjectPresence(typ).Intervals() {
			if iv.Start < 0 || iv.End >= v.NumFrames() {
				t.Errorf("object %s interval %v out of frame bounds", typ, iv)
			}
		}
	}
	for _, act := range v.ActionTypes() {
		for _, iv := range v.ActionPresence(act).Intervals() {
			if iv.Start < 0 || iv.End >= numShots {
				t.Errorf("action %s interval %v out of shot bounds", act, iv)
			}
		}
	}
}

func TestGenerateDensities(t *testing.T) {
	// Over a long horizon the renewal process should produce occupancy close
	// to dur/(gap+dur).
	s := testScript(11)
	s.Frames = 400_000
	v := MustGenerate(s)
	occ := float64(v.ObjectPresence("car").TotalLen()) / float64(s.Frames)
	want := 200.0 / (1500 + 200)
	if math.Abs(occ-want) > 0.35*want {
		t.Errorf("car occupancy %v, want ~%v", occ, want)
	}
	numShots := s.Geometry.NumShots(s.Frames)
	aocc := float64(v.ActionPresence("jumping").TotalLen()) / float64(numShots)
	awant := 8.0 / (30 + 8)
	if math.Abs(aocc-awant) > 0.35*awant {
		t.Errorf("action occupancy %v, want ~%v", aocc, awant)
	}
}

func TestCorrelatedObjectCoOccurs(t *testing.T) {
	v := MustGenerate(testScript(5))
	g := v.Meta.Geometry
	acts := v.ActionPresence("jumping").Intervals()
	if len(acts) < 5 {
		t.Fatalf("too few action occurrences (%d) to test correlation", len(acts))
	}
	covered := 0
	for _, shots := range acts {
		frames := video.Interval{
			Start: g.FrameRangeOfShot(shots.Start).Start,
			End:   g.FrameRangeOfShot(shots.End).End,
		}
		if !v.ObjectPresence("human").IntersectSet(video.NewIntervalSet(frames)).Empty() {
			covered++
		}
	}
	frac := float64(covered) / float64(len(acts))
	if frac < 0.6 {
		t.Errorf("only %v of action occurrences have the correlated human (want ~0.9)", frac)
	}
}

// TestInstancesAtMatchesPresence pins AppendTracks against a scan of every
// appearance: a window holds exactly the appearances overlapping it, in
// start order, and a one-frame window is non-empty exactly where the type
// is present.
func TestInstancesAtMatchesPresence(t *testing.T) {
	v := MustGenerate(testScript(9))
	for f := 0; f < v.NumFrames(); f += 37 {
		for _, typ := range v.ObjectTypes() {
			ids := v.AppendTracks(typ, video.Interval{Start: f, End: f}, nil)
			if (len(ids) > 0) != v.ObjectPresentAt(typ, f) {
				t.Fatalf("frame %d type %s: instances %v disagree with presence %v",
					f, typ, ids, v.ObjectPresentAt(typ, f))
			}
			window := video.Interval{Start: f, End: f + f%97}
			var want []Appearance
			for _, a := range v.ObjectAppearances(typ) {
				if a.Frames.Overlaps(window) {
					want = append(want, a)
				}
			}
			if got := v.AppendTracks(typ, window, nil); !slices.Equal(got, want) {
				t.Fatalf("window %v type %s: tracks %v, want %v", window, typ, got, want)
			}
		}
	}
}

func TestTrackIDsUnique(t *testing.T) {
	v := MustGenerate(testScript(13))
	seen := map[int]bool{}
	for _, typ := range v.ObjectTypes() {
		for _, a := range v.ObjectAppearances(typ) {
			if seen[a.TrackID] {
				t.Fatalf("duplicate track id %d", a.TrackID)
			}
			seen[a.TrackID] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no appearances generated")
	}
}

func TestTruthFramesIsIntersection(t *testing.T) {
	v := MustGenerate(testScript(17))
	q := QuerySpec{Name: "q", Action: "jumping", Objects: []string{"car", "human"}}
	truth := v.TruthFrames(q)
	g := v.Meta.Geometry
	for f := 0; f < v.NumFrames(); f += 13 {
		inTruth := truth.Contains(f)
		want := v.ObjectPresentAt("car", f) && v.ObjectPresentAt("human", f) &&
			v.ActionAt("jumping", g.ShotOfFrame(f))
		if inTruth != want {
			t.Fatalf("frame %d: truth %v, want %v", f, inTruth, want)
		}
	}
}

func TestTruthClipsCoverage(t *testing.T) {
	v := MustGenerate(testScript(19))
	q := QuerySpec{Name: "q", Action: "jumping", Objects: []string{"human"}}
	truth := v.TruthFrames(q)
	any := v.TruthClips(q, 0)
	half := v.TruthClips(q, 0.5)
	g := v.Meta.Geometry
	for c := 0; c < v.Meta.NumClips(); c++ {
		r := g.FrameRangeOfClip(c)
		covered := truth.Clamp(r).TotalLen()
		if any.Contains(c) != (covered > 0) {
			t.Fatalf("clip %d: any-coverage truth %v but covered %d", c, any.Contains(c), covered)
		}
		if half.Contains(c) != (covered >= (r.Len()+1)/2) {
			t.Fatalf("clip %d: half-coverage truth %v but covered %d/%d", c, half.Contains(c), covered, r.Len())
		}
	}
	// Stricter coverage must select a subset of clips.
	strict := v.TruthClips(q, 1.0)
	if strict.TotalLen() > half.TotalLen() || half.TotalLen() > any.TotalLen() {
		t.Error("coverage thresholds not monotone")
	}
}

func TestRateFns(t *testing.T) {
	if ConstantRate(2.5)(100) != 2.5 {
		t.Error("ConstantRate")
	}
	p := PeakRate(100, 10, 5)
	if p(5) != 5 || p(50) != 1 || p(105) != 5 {
		t.Error("PeakRate windows wrong")
	}
	if PeakRate(0, 10, 5)(3) != 1 {
		t.Error("PeakRate with zero period should be constant 1")
	}
	st := StepRate(1000, 8)
	if st(999) != 1 || st(1000) != 8 {
		t.Error("StepRate boundary wrong")
	}
}

func TestStepRateChangesOccupancy(t *testing.T) {
	s := Script{
		ID: "drift", Frames: 200_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 21,
		Actions: []ActionSpec{{Name: "a", MeanGapShots: 100, MeanDurShots: 2}},
		Objects: []ObjectSpec{{
			Name: "car", MeanGapFrames: 2000, MeanDurFrames: 100,
			Rate: StepRate(100_000, 10),
		}},
	}
	v := MustGenerate(s)
	first := v.ObjectPresence("car").Clamp(video.Interval{Start: 0, End: 99_999}).TotalLen()
	second := v.ObjectPresence("car").Clamp(video.Interval{Start: 100_000, End: 199_999}).TotalLen()
	if second < 3*first {
		t.Errorf("step rate had no effect: first half %d, second half %d", first, second)
	}
}

func TestYouTubeDataset(t *testing.T) {
	d := YouTube(Options{Scale: 0.02, Seed: 1})
	if len(d.Queries) != 12 {
		t.Fatalf("want 12 queries, got %d", len(d.Queries))
	}
	if len(d.Videos) == 0 {
		t.Fatal("no videos generated")
	}
	q1 := d.Query("q1")
	if q1 == nil || q1.Action != "washing_dishes" || len(q1.Objects) != 2 {
		t.Fatalf("q1 wrong: %+v", q1)
	}
	if d.Query("nope") != nil {
		t.Error("unknown query should be nil")
	}
	// Every query-set video must script the query's action and objects plus
	// a person.
	v := d.Videos[0]
	if v.ActionPresence("washing_dishes").Empty() && len(v.ActionTypes()) == 0 {
		t.Error("first video has no actions at all")
	}
	found := false
	for _, typ := range v.ObjectTypes() {
		if typ == "person" {
			found = true
		}
	}
	if !found {
		t.Error("videos must script a person object")
	}
	if d.Video(v.ID()) != v {
		t.Error("Video lookup by ID failed")
	}
	if d.TotalFrames() <= 0 {
		t.Error("TotalFrames should be positive")
	}
}

func TestYouTubeScaleRoughlyLinear(t *testing.T) {
	small := YouTube(Options{Scale: 0.02, Seed: 1})
	big := Movies(Options{Scale: 0.02, Seed: 1})
	_ = big
	small2 := YouTube(Options{Scale: 0.04, Seed: 1})
	r := float64(small2.TotalFrames()) / float64(small.TotalFrames())
	if r < 1.5 || r > 2.5 {
		t.Errorf("doubling scale changed frames by %vx, want ~2x", r)
	}
}

func TestMoviesDataset(t *testing.T) {
	d := Movies(Options{Scale: 0.05, Seed: 2})
	if len(d.Videos) != 4 || len(d.Queries) != 4 {
		t.Fatalf("want 4 movies and 4 queries, got %d, %d", len(d.Videos), len(d.Queries))
	}
	titanic := d.Video("titanic")
	if titanic == nil {
		t.Fatal("no titanic")
	}
	q := d.Query("titanic")
	if q.Action != "kissing" {
		t.Errorf("titanic action = %s", q.Action)
	}
	// The queried action must actually occur.
	if titanic.ActionPresence("kissing").Empty() {
		t.Error("kissing never occurs in titanic")
	}
	// Movies must carry a wider vocabulary than the query.
	if len(titanic.ActionTypes()) < 3 || len(titanic.ObjectTypes()) < 5 {
		t.Errorf("vocabulary too narrow: %d actions, %d objects",
			len(titanic.ActionTypes()), len(titanic.ObjectTypes()))
	}
	// Durations follow Table 2 ordering: titanic is the longest.
	for _, v := range d.Videos {
		if v.NumFrames() > titanic.NumFrames() {
			t.Errorf("%s longer than titanic", v.ID())
		}
	}
}

func TestMoviesDeterministic(t *testing.T) {
	a := Movies(Options{Scale: 0.03, Seed: 5})
	b := Movies(Options{Scale: 0.03, Seed: 5})
	av, bv := a.Video("iron_man"), b.Video("iron_man")
	if av.ActionPresence("robot_dancing").String() != bv.ActionPresence("robot_dancing").String() {
		t.Error("movies not deterministic")
	}
}

func TestRNGBasics(t *testing.T) {
	r := newRNG(1, 2, 3)
	s := newRNG(1, 2, 3)
	for i := 0; i < 100; i++ {
		if r.next() != s.next() {
			t.Fatal("rng streams with same key diverge")
		}
	}
	r2 := newRNG(1, 2, 4)
	same := true
	for i := 0; i < 10; i++ {
		if r.next() != r2.next() {
			same = false
		}
	}
	if same {
		t.Error("different keys produced identical streams")
	}
	// float64 in [0,1)
	for i := 0; i < 1000; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %v", f)
		}
	}
	// exponential mean
	sum := 0.0
	for i := 0; i < 20000; i++ {
		sum += r.exp(5)
	}
	if mean := sum / 20000; math.Abs(mean-5) > 0.3 {
		t.Errorf("exp mean %v, want ~5", mean)
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) should be 0")
	}
	for i := 0; i < 100; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
}
