package detect

import "svqact/internal/video"

// Events is a struct-of-arrays batch of object detection events: three
// parallel columns (unit, track, score) instead of per-event structs. The
// hot paths — online evaluation over a clip, offline ingest over a whole
// video — append thousands of events per video; the columnar layout keeps
// them in three contiguous allocations that a caller can Reset and reuse,
// where the AoS []Detection-per-frame shape paid one heap slice per frame.
type Events struct {
	// Units holds the frame (object events) or shot (action events) index of
	// each event. int32 comfortably covers any video length the engine sees.
	Units []int32
	// Tracks holds each event's instance identity. Tracker remapping widens
	// IDs by a factor of one million, so the column is int64.
	Tracks []int64
	// Scores holds each event's detection score.
	Scores []float64
}

// Len returns the number of buffered events.
func (e *Events) Len() int { return len(e.Units) }

// Reset empties the batch, retaining the columns' capacity for reuse.
func (e *Events) Reset() {
	e.Units = e.Units[:0]
	e.Tracks = e.Tracks[:0]
	e.Scores = e.Scores[:0]
}

// Append adds one event to the batch.
func (e *Events) Append(unit int, track int64, score float64) {
	e.Units = append(e.Units, int32(unit))
	e.Tracks = append(e.Tracks, track)
	e.Scores = append(e.Scores, score)
}

// BatchObjectScorer is an optional ObjectDetector capability: score a
// contiguous run of frames in one call, filling dst[i] with the score of
// frame start+i. Implementations hoist per-video work (burst overlays,
// frame counts) out of the per-frame loop; callers hoist the interface
// dispatch and, for simulated models, the per-call lock on the overlay
// cache. Fault-injecting decorators deliberately do not implement it — the
// batch path is only taken for infallible models, so the per-attempt retry
// contract is untouched.
type BatchObjectScorer interface {
	FrameScoreBatch(v TruthVideo, typ string, start int, dst []float64)
}

// BatchActionScorer is the shot-level analogue of BatchObjectScorer.
type BatchActionScorer interface {
	ShotScoreBatch(v TruthVideo, act string, start int, dst []float64)
}

// ObjectEventAppender is an optional ObjectDetector capability: append the
// detections on a run of frames to a columnar Events batch, in frame order,
// instead of materialising a fresh []Detection per frame.
type ObjectEventAppender interface {
	AppendFrameEvents(v TruthVideo, typ string, frames video.Interval, ev *Events)
}

// frameDetections is FrameDetections as the one-frame case of a
// detector's events path.
func frameDetections(a ObjectEventAppender, v TruthVideo, typ string, frame int) []Detection {
	var ev Events
	a.AppendFrameEvents(v, typ, video.Interval{Start: frame, End: frame}, &ev)
	if ev.Len() == 0 {
		return nil
	}
	out := make([]Detection, ev.Len())
	for i := range out {
		out[i] = Detection{TrackID: int(ev.Tracks[i]), Score: ev.Scores[i]}
	}
	return out
}

// FrameScoreBatch fills dst[i] with d's score for frame start+i, using the
// detector's batch implementation when it has one and falling back to
// per-frame FrameScore calls otherwise. The results are identical either
// way; only the constant factors differ.
func FrameScoreBatch(d ObjectDetector, v TruthVideo, typ string, start int, dst []float64) {
	if b, ok := d.(BatchObjectScorer); ok {
		b.FrameScoreBatch(v, typ, start, dst)
		return
	}
	for i := range dst {
		dst[i] = d.FrameScore(v, typ, start+i)
	}
}

// ShotScoreBatch fills dst[i] with r's score for shot start+i, batching
// when the recogniser supports it.
func ShotScoreBatch(r ActionRecognizer, v TruthVideo, act string, start int, dst []float64) {
	if b, ok := r.(BatchActionScorer); ok {
		b.ShotScoreBatch(v, act, start, dst)
		return
	}
	for i := range dst {
		dst[i] = r.ShotScore(v, act, start+i)
	}
}

// AppendFrameEvents appends the detections of typ on frames to ev, using
// d's columnar implementation when it has one and adapting FrameDetections
// frame by frame otherwise.
func AppendFrameEvents(d ObjectDetector, v TruthVideo, typ string, frames video.Interval, ev *Events) {
	if a, ok := d.(ObjectEventAppender); ok {
		a.AppendFrameEvents(v, typ, frames, ev)
		return
	}
	for f := frames.Start; f <= frames.End; f++ {
		for _, det := range d.FrameDetections(v, typ, f) {
			ev.Append(f, int64(det.TrackID), det.Score)
		}
	}
}
