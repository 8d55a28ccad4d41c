package detect

import "svqact/internal/video"

// Tracker simulates an object tracker (the paper deploys CenterTrack): it
// turns a detector's per-frame detections into temporally consistent
// instance identities. Real trackers occasionally lose an instance and
// re-identify it under a new ID; fragmentEvery models that by splitting long
// tracks into segments of that many frames, each with its own identity (0:
// perfect tracking). Scores, unit cost and failures are the detector's.
type Tracker struct {
	ObjectDetector
	fragmentEvery int
}

// NewTracker wraps det with simulated tracking.
func NewTracker(det ObjectDetector, fragmentEvery int) *Tracker {
	return &Tracker{ObjectDetector: det, fragmentEvery: fragmentEvery}
}

// CenterTrack wraps det with the fragmentation behaviour calibrated for the
// paper's tracker: identities survive about 20 seconds (600 frames) before a
// re-identification.
func CenterTrack(det ObjectDetector) *Tracker { return NewTracker(det, 600) }

// Name implements Model.
func (t *Tracker) Name() string { return t.ObjectDetector.Name() + "+track" }

// Events implements ObjectDetector: the wrapped detector's events are
// appended, then the true instances' identities remapped in place to
// segment-local ones: stable within a segment, distinct across segments and
// from all ground-truth IDs of other instances.
func (t *Tracker) Events(v TruthVideo, typ string, frames video.Interval, ev *Events, attempt int) (int, error) {
	n0 := ev.Len()
	n, err := t.ObjectDetector.Events(v, typ, frames, ev, attempt)
	if t.fragmentEvery > 0 {
		for i := n0; i < ev.Len(); i++ {
			if id := ev.Tracks[i]; id >= 0 {
				ev.Tracks[i] = id*1_000_000 + int64(int(ev.Units[i])/t.fragmentEvery) + 1
			}
		}
	}
	return n, err
}
