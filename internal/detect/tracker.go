package detect

import (
	"time"

	"svqact/internal/video"
)

// Tracker simulates an object tracker (the paper deploys CenterTrack): it
// wraps an ObjectDetector and post-processes its per-frame detections into
// temporally consistent instance identities. Real trackers occasionally lose
// an instance and re-identify it under a new ID; FragmentEvery models that
// by splitting long tracks into segments of roughly that many frames, each
// with its own derived identity. Zero disables fragmentation (perfect
// tracking).
type Tracker struct {
	det           ObjectDetector
	fragmentEvery int
}

// NewTracker wraps det with simulated tracking.
func NewTracker(det ObjectDetector, fragmentEvery int) *Tracker {
	return &Tracker{det: det, fragmentEvery: fragmentEvery}
}

// CenterTrack wraps det with the fragmentation behaviour calibrated for the
// paper's tracker: identities survive about 20 seconds (600 frames) before a
// re-identification.
func CenterTrack(det ObjectDetector) *Tracker { return NewTracker(det, 600) }

// Name implements ObjectDetector.
func (t *Tracker) Name() string { return t.det.Name() + "+track" }

// UnitCost implements ObjectDetector; tracking cost is folded into the
// wrapped detector's.
func (t *Tracker) UnitCost() time.Duration { return t.det.UnitCost() }

// FrameScore implements ObjectDetector (tracking does not change scores).
func (t *Tracker) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return t.det.FrameScore(v, typ, frame)
}

// FrameScoreBatch implements BatchObjectScorer; tracking does not change
// scores, so the wrapped detector's batch path (if any) is used directly.
func (t *Tracker) FrameScoreBatch(v TruthVideo, typ string, start int, dst []float64) {
	FrameScoreBatch(t.det, v, typ, start, dst)
}

// AppendFrameEvents implements ObjectEventAppender: the wrapped detector's
// events are appended, then the true instances' identities remapped in
// place to segment-local ones: stable within a segment, distinct across
// segments and from all ground-truth IDs of other instances.
func (t *Tracker) AppendFrameEvents(v TruthVideo, typ string, frames video.Interval, ev *Events) {
	n := ev.Len()
	AppendFrameEvents(t.det, v, typ, frames, ev)
	if t.fragmentEvery <= 0 {
		return
	}
	for i := n; i < ev.Len(); i++ {
		if id := ev.Tracks[i]; id >= 0 {
			ev.Tracks[i] = id*1_000_000 + int64(int(ev.Units[i])/t.fragmentEvery) + 1
		}
	}
}

// FrameDetections implements ObjectDetector: the one-frame events batch.
func (t *Tracker) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	return frameDetections(t, v, typ, frame)
}
