package detect

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"svqact/internal/video"
)

// Every model honours the one contract.
var (
	_ ObjectDetector   = (*SimObjectDetector)(nil)
	_ ObjectDetector   = (*DistilledObjectDetector)(nil)
	_ ObjectDetector   = (*Tracker)(nil)
	_ ObjectDetector   = (*FaultyObjectDetector)(nil)
	_ ObjectDetector   = (*ObjectCascade)(nil)
	_ ActionRecognizer = (*SimActionRecognizer)(nil)
	_ ActionRecognizer = (*DistilledActionRecognizer)(nil)
	_ ActionRecognizer = (*FaultyActionRecognizer)(nil)
	_ ActionRecognizer = (*ActionCascade)(nil)
)

// TestFaultDecoratorsDrawOnEveryPath: a decorated model has no faultless
// side door. On a permanently failing unit its Score, its Events, its
// FrameScore, a tracker around it and a cascade whose only tiers it is all
// fail — and every one of them scores the units before the failure.
func TestFaultDecoratorsDrawOnEveryPath(t *testing.T) {
	v := testVideo(t, 14)
	fc := FaultConfig{PermanentRate: 0.05, Seed: 9}
	d := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), fc)
	bad := -1
	for f := 0; f < v.NumFrames() && bad < 0; f++ {
		if _, err := d.Score(v, "human", f, make([]float64, 1), 0, Need{}, 0); err != nil {
			bad = f
		}
	}
	if bad < 1 {
		t.Fatalf("first permanently failing frame %d: need one after frame 0", bad)
	}
	for name, od := range map[string]ObjectDetector{
		"faulty": d, "tracked": CenterTrack(d),
		"cascade": NewObjectCascade(ObjectTier{Detector: d, Band: RecallBand()}, ObjectTier{Detector: d}),
	} {
		for attempt := 0; attempt < 3; attempt++ {
			n, err := od.Score(v, "human", 0, make([]float64, bad+5), 0, Need{}, attempt)
			var de *DetectionError
			if n != bad || !errors.As(err, &de) || de.Transient || de.Unit != bad {
				t.Errorf("%s attempt %d: Score = (%d, %v), want (%d, permanent failure on %d)", name, attempt, n, err, bad, bad)
			}
			var ev Events
			if n, err = od.Events(v, "human", video.Interval{Start: 0, End: bad + 4}, &ev, attempt); n != bad || err == nil {
				t.Errorf("%s attempt %d: Events = (%d, %v), want %d frames and an error", name, attempt, n, err, bad)
			}
			if ev.Len() > 0 && int(ev.Units[ev.Len()-1]) >= bad {
				t.Errorf("%s attempt %d: events reach past the failing frame", name, attempt)
			}
		}
		if s := od.FrameScore(v, "human", bad); s != 0 {
			t.Errorf("%s: FrameScore of a failing frame = %v, want 0", name, s)
		}
	}
	r := InjectActionFaults(NewActionRecognizer(I3D, 1), FaultConfig{PermanentRate: 1})
	if n, err := r.Score(v, "jumping", 3, make([]float64, 4), 0, Need{}, 0); n != 0 || err == nil {
		t.Errorf("action decorator: Score = (%d, %v), want (0, error)", n, err)
	}
}

// TestFrameScoreBatchMatchesScalar pins the batch contract: for every
// detector shape, a Score batch equals per-frame FrameScore bit for bit.
func TestFrameScoreBatchMatchesScalar(t *testing.T) {
	v := testVideo(t, 11)
	teacher := NewObjectDetector(MaskRCNN, 7)
	dets := map[string]ObjectDetector{
		"sim":     teacher,
		"tracked": CenterTrack(teacher),
		"faulty":  InjectObjectFaults(teacher, FaultConfig{}),
		"cascade": NewDistilledObjectCascade(teacher, DistilledRCNN, 7),
	}
	for name, d := range dets {
		for _, start := range []int{0, 137, v.NumFrames() - 64} {
			dst := make([]float64, 64)
			if n, err := d.Score(v, "car", start, dst, 0, Need{}, 0); n != len(dst) || err != nil {
				t.Fatalf("%s: Score = (%d, %v)", name, n, err)
			}
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
	act := NewActionRecognizer(I3D, 5)
	recs := map[string]ActionRecognizer{
		"sim":     act,
		"faulty":  InjectActionFaults(act, FaultConfig{}),
		"cascade": NewDistilledActionCascade(act, DistilledI3D, 5),
	}
	for name, r := range recs {
		dst := make([]float64, numShots)
		if n, err := r.Score(v, "jumping", 0, dst, 0, Need{}, 0); n != numShots || err != nil {
			t.Fatalf("%s: Score = (%d, %v)", name, n, err)
		}
		for i, got := range dst {
			if want := unitScore(r, v, "jumping", i); got != want {
				t.Fatalf("%s: batch score shot %d = %v, scalar %v", name, i, got, want)
			}
		}
	}
}

// TestAppendFrameEventsMatchesFrameDetections pins a run's Events to the
// concatenation of its frames' one-frame events for every detector shape,
// including the tracker's identity remapping.
func TestAppendFrameEventsMatchesFrameDetections(t *testing.T) {
	v := testVideo(t, 13)
	teacher := NewObjectDetector(MaskRCNN, 7)
	dets := map[string]ObjectDetector{
		"sim":     teacher,
		"tracked": CenterTrack(teacher),
		"faulty":  InjectObjectFaults(teacher, FaultConfig{}),
		"cascade": NewTracker(NewDistilledObjectCascade(teacher, DistilledRCNN, 7), 37),
	}
	for name, d := range dets {
		for _, start := range []int{0, 4000, v.NumFrames() - 300} {
			run := video.Interval{Start: start, End: start + 299}
			var ev Events
			if n, err := d.Events(v, "human", run, &ev, 0); n != run.Len() || err != nil {
				t.Fatalf("%s: Events = (%d, %v)", name, n, err)
			}
			var want []string
			for f := run.Start; f <= run.End; f++ {
				for _, det := range frameDetections(d, v, "human", f) {
					want = append(want, fmt.Sprint(f, det.TrackID, det.Score))
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: no events sampled — test is vacuous", name)
			}
			if ev.Len() != len(want) {
				t.Fatalf("%s: %d events, want %d", name, ev.Len(), len(want))
			}
			for i := range want {
				if got := fmt.Sprint(ev.Units[i], ev.Tracks[i], ev.Scores[i]); got != want[i] {
					t.Fatalf("%s: event %d = %s, want %s", name, i, got, want[i])
				}
			}
			ev.Reset()
			if ev.Len() != 0 || cap(ev.Scores) == 0 {
				t.Fatalf("%s: Reset should empty the batch but keep capacity", name)
			}
		}
	}
}

// TestReadEventsRetriesAndResumes: ReadEvents absorbs transient faults
// frame by frame (the events equal the clean detector's, the account prices
// every retry), stops at a frame that fails permanently, and charges
// nothing once ctx has ended.
func TestReadEventsRetriesAndResumes(t *testing.T) {
	v := testVideo(t, 15)
	clean := NewObjectDetector(MaskRCNN, 3)
	run := video.Interval{Start: 100, End: 2099}
	var want, got Events
	clean.Events(v, "human", run, &want, 0)
	faulty := InjectObjectFaults(clean, FaultConfig{TransientRate: 0.3, Seed: 5})
	var acc Account
	acc.Reset(1)
	n, err := ReadEvents(context.Background(), faulty, v, "human", run, &got, RetryConfig{Attempts: 16}, &acc)
	if n != run.Len() || err != nil {
		t.Fatalf("ReadEvents = (%d, %v), want every frame", n, err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("events under absorbed faults differ from the clean run's")
	}
	if acc.Units[0] != int64(run.Len()) || acc.Retries == 0 || acc.Attempts != acc.Units[0]+acc.Retries ||
		acc.Transient != acc.Retries || acc.Cost != time.Duration(acc.Attempts)*MaskRCNN.UnitCost {
		t.Errorf("account %+v: want %d units, every retry answering one transient fault, priced per attempt", acc, run.Len())
	}

	perm := InjectObjectFaults(clean, FaultConfig{PermanentRate: 0.01, Seed: 5})
	got.Reset()
	acc.Reset(1)
	n, err = ReadEvents(context.Background(), perm, v, "human", run, &got, RetryConfig{Attempts: 4}, &acc)
	var de *DetectionError
	if !errors.As(err, &de) || de.Transient || de.Unit != run.Start+n {
		t.Fatalf("ReadEvents under permanent faults = (%d, %v), want the first failing frame's error", n, err)
	}
	if acc.Units[0] != int64(n+1) || acc.Attempts != int64(n+1) || acc.Permanent != 1 {
		t.Errorf("account %+v: want %d frames reached, one attempt each, one permanent failure", acc, n+1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	acc.Reset(1)
	if n, err := ReadEvents(ctx, faulty, v, "human", run, &got, RetryConfig{Attempts: 3}, &acc); n != 0 || !errors.Is(err, context.Canceled) || acc.Attempts != 0 {
		t.Errorf("cancelled: (%d, %v) with %+v, want nothing read or charged", n, err, acc)
	}
}
