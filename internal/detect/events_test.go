package detect

import (
	"testing"

	"svqact/internal/video"
)

// The batch fast paths must be advertised by the simulated models and the
// tracker, and must NOT leak through the fault decorators — fallible models
// keep the per-attempt retry contract.
var (
	_ BatchObjectScorer   = (*SimObjectDetector)(nil)
	_ ObjectEventAppender = (*SimObjectDetector)(nil)
	_ BatchActionScorer   = (*SimActionRecognizer)(nil)
	_ BatchObjectScorer   = (*Tracker)(nil)
	_ ObjectEventAppender = (*Tracker)(nil)
)

func TestFaultDecoratorsHideBatchPaths(t *testing.T) {
	d := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), FaultConfig{})
	if _, ok := any(d).(BatchObjectScorer); ok {
		t.Error("FaultyObjectDetector must not advertise BatchObjectScorer")
	}
	if _, ok := any(d).(ObjectEventAppender); ok {
		t.Error("FaultyObjectDetector must not advertise ObjectEventAppender")
	}
	r := InjectActionFaults(NewActionRecognizer(I3D, 1), FaultConfig{})
	if _, ok := any(r).(BatchActionScorer); ok {
		t.Error("FaultyActionRecognizer must not advertise BatchActionScorer")
	}
}

// TestFrameScoreBatchMatchesScalar pins the batch contract: for every
// detector shape (sim, tracked, and the generic fallback), FrameScoreBatch
// must equal per-frame FrameScore bit for bit.
func TestFrameScoreBatchMatchesScalar(t *testing.T) {
	v := testVideo(t, 11)
	dets := map[string]ObjectDetector{
		"sim":     NewObjectDetector(MaskRCNN, 7),
		"tracked": CenterTrack(NewObjectDetector(MaskRCNN, 7)),
		// The fault decorator exercises the generic per-frame fallback.
		"fallback": InjectObjectFaults(NewObjectDetector(MaskRCNN, 7), FaultConfig{}),
	}
	for name, d := range dets {
		for _, start := range []int{0, 137, v.NumFrames() - 64} {
			dst := make([]float64, 64)
			FrameScoreBatch(d, v, "car", start, dst)
			for i, got := range dst {
				if want := d.FrameScore(v, "car", start+i); got != want {
					t.Fatalf("%s: batch score frame %d = %v, scalar %v", name, start+i, got, want)
				}
			}
		}
	}
}

func TestShotScoreBatchMatchesScalar(t *testing.T) {
	v := testVideo(t, 12)
	numShots := v.Geometry().NumShots(v.NumFrames())
	recs := map[string]ActionRecognizer{
		"sim":      NewActionRecognizer(I3D, 5),
		"fallback": InjectActionFaults(NewActionRecognizer(I3D, 5), FaultConfig{}),
	}
	for name, r := range recs {
		dst := make([]float64, numShots)
		ShotScoreBatch(r, v, "jumping", 0, dst)
		for i, got := range dst {
			if want := r.ShotScore(v, "jumping", i); got != want {
				t.Fatalf("%s: batch score shot %d = %v, scalar %v", name, i, got, want)
			}
		}
	}
}

// TestAppendFrameEventsMatchesFrameDetections pins the columnar path to the
// AoS one for every detector shape, including the tracker's identity
// remapping.
func TestAppendFrameEventsMatchesFrameDetections(t *testing.T) {
	v := testVideo(t, 13)
	dets := map[string]ObjectDetector{
		"sim":      NewObjectDetector(MaskRCNN, 7),
		"tracked":  CenterTrack(NewObjectDetector(MaskRCNN, 7)),
		"fallback": InjectObjectFaults(NewObjectDetector(MaskRCNN, 7), FaultConfig{}),
	}
	for name, d := range dets {
		var ev Events
		var want []Detection
		var wantFrames []int
		for f := 0; f < v.NumFrames(); f += 37 {
			for _, det := range d.FrameDetections(v, "human", f) {
				want = append(want, det)
				wantFrames = append(wantFrames, f)
			}
			AppendFrameEvents(d, v, "human", video.Interval{Start: f, End: f}, &ev)
		}
		if ev.Len() != len(want) {
			t.Fatalf("%s: %d events, want %d", name, ev.Len(), len(want))
		}
		for i := range want {
			if int(ev.Units[i]) != wantFrames[i] || ev.Tracks[i] != int64(want[i].TrackID) || ev.Scores[i] != want[i].Score {
				t.Fatalf("%s: event %d = (%d, %d, %v), want (%d, %d, %v)",
					name, i, ev.Units[i], ev.Tracks[i], ev.Scores[i], wantFrames[i], want[i].TrackID, want[i].Score)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: no events sampled — test is vacuous", name)
		}
		ev.Reset()
		if ev.Len() != 0 || cap(ev.Scores) == 0 {
			t.Fatalf("%s: Reset should empty the batch but keep capacity", name)
		}
	}
}
