package detect

import (
	"math"
	"testing"
	"time"

	"svqact/internal/synth"
	"svqact/internal/video"
)

// The simulated models must accept generated videos directly.
var _ TruthVideo = (*synth.Video)(nil)

func testVideo(t testing.TB, seed int64) *synth.Video {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID:       "dv",
		Frames:   30_000,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     seed,
		Actions:  []synth.ActionSpec{{Name: "jumping", MeanGapShots: 25, MeanDurShots: 8}},
		Objects: []synth.ObjectSpec{
			{Name: "car", MeanGapFrames: 1200, MeanDurFrames: 250},
			{Name: "human", MeanDurFrames: 150, CorrelatedWith: "jumping", CorrelationProb: 0.9},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Detection is one detected object instance on a frame: the per-frame shape
// the referees in sim_ref_test.go speak.
type Detection struct {
	TrackID int
	Score   float64
}

// frameDetections is d's one-frame Events at attempt 0, as Detections.
func frameDetections(d ObjectDetector, v TruthVideo, typ string, frame int) []Detection {
	var ev Events
	d.Events(v, typ, video.Interval{Start: frame, End: frame}, &ev, 0)
	var out []Detection
	for i := range ev.Scores {
		out = append(out, Detection{TrackID: int(ev.Tracks[i]), Score: ev.Scores[i]})
	}
	return out
}

// positive is the thresholded indicator of a model's one-unit score.
func positive(m Model, v TruthVideo, label string, unit int) bool {
	return unitScore(m, v, label, unit) >= DefaultThreshold
}

func TestObjectDetectorDeterministic(t *testing.T) {
	v := testVideo(t, 1)
	d1 := NewObjectDetector(MaskRCNN, 7)
	d2 := NewObjectDetector(MaskRCNN, 7)
	for f := 0; f < v.NumFrames(); f += 101 {
		if d1.FrameScore(v, "car", f) != d2.FrameScore(v, "car", f) {
			t.Fatalf("frame %d: same model+seed disagree", f)
		}
	}
	d3 := NewObjectDetector(MaskRCNN, 8)
	same := true
	for f := 0; f < 5000; f++ {
		if d1.FrameScore(v, "car", f) != d3.FrameScore(v, "car", f) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical detections")
	}
}

func TestObjectDetectorCalibration(t *testing.T) {
	v := testVideo(t, 2)
	for _, prof := range []Profile{MaskRCNN, YOLOv3} {
		d := NewObjectDetector(prof, 3)
		var tp, present, fp, absent int
		for f := 0; f < v.NumFrames(); f++ {
			pos := positive(d, v, "car", f)
			if v.ObjectPresentAt("car", f) {
				present++
				if pos {
					tp++
				}
			} else {
				absent++
				if pos {
					fp++
				}
			}
		}
		tpr := float64(tp) / float64(present)
		fpr := float64(fp) / float64(absent)
		// Post-threshold TPR is profile TPR times the mass of the score
		// distribution above 0.5; both calibrated profiles keep most mass
		// above it.
		if tpr < 0.7*prof.TPR || tpr > prof.TPR+1e-9 {
			t.Errorf("%s: post-threshold TPR %v out of range for profile TPR %v", prof.Name, tpr, prof.TPR)
		}
		if fpr <= 0 || fpr > 0.15 {
			t.Errorf("%s: FPR %v out of expected range", prof.Name, fpr)
		}
	}
}

func TestMaskRCNNBeatsYOLO(t *testing.T) {
	v := testVideo(t, 4)
	rates := map[string][2]float64{}
	for _, prof := range []Profile{MaskRCNN, YOLOv3} {
		d := NewObjectDetector(prof, 3)
		var tp, present, fp, absent int
		for f := 0; f < v.NumFrames(); f++ {
			pos := positive(d, v, "car", f)
			if v.ObjectPresentAt("car", f) {
				present++
				if pos {
					tp++
				}
			} else {
				absent++
				if pos {
					fp++
				}
			}
		}
		rates[prof.Name] = [2]float64{float64(tp) / float64(present), float64(fp) / float64(absent)}
	}
	if rates["maskrcnn"][0] <= rates["yolov3"][0] {
		t.Errorf("MaskRCNN TPR %v should beat YOLOv3 %v", rates["maskrcnn"][0], rates["yolov3"][0])
	}
	if rates["maskrcnn"][1] >= rates["yolov3"][1] {
		t.Errorf("MaskRCNN FPR %v should be below YOLOv3 %v", rates["maskrcnn"][1], rates["yolov3"][1])
	}
}

func TestIdealModelsReproduceTruth(t *testing.T) {
	v := testVideo(t, 5)
	m := NewModels(NewObjectDetector(IdealObject, 0), NewActionRecognizer(IdealAction, 0))
	for f := 0; f < v.NumFrames(); f += 17 {
		if positive(m.Objects, v, "car", f) != v.ObjectPresentAt("car", f) {
			t.Fatalf("ideal object detector wrong at frame %d", f)
		}
	}
	numShots := v.Geometry().NumShots(v.NumFrames())
	for s := 0; s < numShots; s++ {
		if positive(m.Actions, v, "jumping", s) != v.ActionAt("jumping", s) {
			t.Fatalf("ideal action recogniser wrong at shot %d", s)
		}
	}
}

func TestFrameScoreConsistentWithDetections(t *testing.T) {
	v := testVideo(t, 6)
	d := NewObjectDetector(YOLOv3, 9)
	for f := 0; f < v.NumFrames(); f += 53 {
		max := 0.0
		for _, det := range frameDetections(d, v, "car", f) {
			if det.Score <= 0 || det.Score > 1 {
				t.Fatalf("frame %d: score %v out of (0,1]", f, det.Score)
			}
			if det.Score > max {
				max = det.Score
			}
		}
		if got := d.FrameScore(v, "car", f); math.Abs(got-max) > 1e-12 {
			t.Fatalf("frame %d: FrameScore %v != max detection %v", f, got, max)
		}
	}
}

func TestDetectionsCarryGroundTruthIDs(t *testing.T) {
	v := testVideo(t, 7)
	d := NewObjectDetector(MaskRCNN, 1)
	checked := 0
	for f := 0; f < v.NumFrames() && checked < 200; f++ {
		if !v.ObjectPresentAt("car", f) {
			continue
		}
		ids := map[int]bool{}
		for _, tr := range v.AppendTracks("car", video.Interval{Start: f, End: f}, nil) {
			ids[tr.TrackID] = true
		}
		for _, det := range frameDetections(d, v, "car", f) {
			if det.TrackID < 0 {
				t.Fatalf("frame %d: true detection with negative id", f)
			}
			if !ids[det.TrackID] {
				t.Fatalf("frame %d: detection id %d not a ground-truth instance", f, det.TrackID)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no present frames found")
	}
}

func TestFalsePositiveIdentitiesNegativeAndStable(t *testing.T) {
	v := testVideo(t, 8)
	d := NewObjectDetector(YOLOv3, 2)
	found := false
	for f := 0; f < v.NumFrames(); f++ {
		if v.ObjectPresentAt("car", f) {
			continue
		}
		dets := frameDetections(d, v, "car", f)
		for _, det := range dets {
			if det.TrackID >= 0 {
				t.Fatalf("frame %d: hallucination with non-negative id %d", f, det.TrackID)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no false positives sampled; calibration too clean for this test")
	}
}

func TestActionRecognizerCalibration(t *testing.T) {
	v := testVideo(t, 9)
	r := NewActionRecognizer(I3D, 3)
	numShots := v.Geometry().NumShots(v.NumFrames())
	var tp, present, fp, absent int
	for s := 0; s < numShots; s++ {
		pos := positive(r, v, "jumping", s)
		if v.ActionAt("jumping", s) {
			present++
			if pos {
				tp++
			}
		} else {
			absent++
			if pos {
				fp++
			}
		}
	}
	if present == 0 {
		t.Fatal("no action shots")
	}
	tpr := float64(tp) / float64(present)
	fpr := float64(fp) / float64(absent)
	if tpr < 0.65 || fpr > 0.1 || fpr <= 0 {
		t.Errorf("I3D post-threshold rates off: TPR %v FPR %v", tpr, fpr)
	}
}

func TestBurstsProduceRuns(t *testing.T) {
	// Within-burst FP rates must be visibly higher than the background rate:
	// sort absent frames into runs flagged positive and check the longest
	// run is burst-like (several consecutive hits would be vanishingly
	// unlikely under iid noise alone).
	v := testVideo(t, 10)
	d := NewObjectDetector(YOLOv3, 11)
	run, maxRun := 0, 0
	for f := 0; f < v.NumFrames(); f++ {
		if v.ObjectPresentAt("car", f) {
			run = 0
			continue
		}
		if positive(d, v, "car", f) {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 3 {
		t.Errorf("longest FP run %d; bursts should produce longer runs", maxRun)
	}
}

func TestTrackerFragmentsLongTracks(t *testing.T) {
	v := testVideo(t, 12)
	base := NewObjectDetector(IdealObject, 0)
	tr := NewTracker(base, 100)
	// Find a long appearance and check its identity changes across segments
	// while staying stable within one.
	apps := v.ObjectAppearances("car")
	var long *synth.Appearance
	for i := range apps {
		if apps[i].Frames.Len() > 300 {
			long = &apps[i]
			break
		}
	}
	if long == nil {
		t.Skip("no long appearance in this realisation")
	}
	idAt := func(f int) int {
		for _, d := range frameDetections(tr, v, "car", f) {
			if d.TrackID/1_000_000 == long.TrackID {
				return d.TrackID
			}
		}
		return 0
	}
	f0 := long.Frames.Start
	a, b := idAt(f0), idAt(f0+1)
	if a == 0 || a != b {
		// The two frames are in the same segment only if they do not
		// straddle a boundary; pick a pair safely inside one segment.
		f0 = (f0/100)*100 + 1
		a, b = idAt(f0), idAt(f0+1)
		if a == 0 || a != b {
			t.Fatalf("identity unstable within segment: %d vs %d", a, b)
		}
	}
	c := idAt(f0 + 150)
	if c != 0 && c == a {
		t.Error("identity did not change across segment boundary")
	}
	if got := tr.Name(); got != "ideal-object+track" {
		t.Errorf("tracker name %q", got)
	}
	if tr.UnitCost() != base.UnitCost() {
		t.Error("tracker should inherit unit cost")
	}
}

func TestTrackerNoFragmentationPassThrough(t *testing.T) {
	v := testVideo(t, 13)
	base := NewObjectDetector(MaskRCNN, 1)
	tr := NewTracker(base, 0)
	for f := 0; f < 3000; f += 7 {
		a := frameDetections(base, v, "car", f)
		b := frameDetections(tr, v, "car", f)
		if len(a) != len(b) {
			t.Fatalf("frame %d: lengths differ", f)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d: detection %d differs", f, i)
			}
		}
		if base.FrameScore(v, "car", f) != tr.FrameScore(v, "car", f) {
			t.Fatalf("frame %d: scores differ", f)
		}
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.AddObjectFrames(100)
	m.AddObjectFrames(50)
	m.AddActionShots(30)
	if m.ObjectFrames() != 150 || m.ActionShots() != 30 {
		t.Fatalf("counters: %d, %d", m.ObjectFrames(), m.ActionShots())
	}
	models := NewModels(NewObjectDetector(MaskRCNN, 0), NewActionRecognizer(I3D, 0))
	want := 150*45*time.Millisecond + 30*90*time.Millisecond
	if got := m.Cost(models); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if got := m.Cost(Models{}); got != 0 {
		t.Errorf("Cost with nil models = %v", got)
	}
}

func TestModelsThresholds(t *testing.T) {
	m := NewModels(NewObjectDetector(IdealObject, 0), NewActionRecognizer(IdealAction, 0))
	if m.ObjThreshold != DefaultThreshold || m.ActThreshold != DefaultThreshold {
		t.Errorf("default thresholds wrong: %+v", m)
	}
}
