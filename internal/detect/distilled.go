package detect

import (
	"sync"
	"time"

	"svqact/internal/video"
)

// Recall-complete distilled proxies. A distilled student model compresses
// an accurate teacher into a fraction of the inference cost; calibrated for
// cascade duty, its operating threshold is tuned so it never misses a unit
// the teacher would score — at the price of extra false positives the
// teacher then has to veto. The simulation reproduces exactly that
// contract: the proxy's score is the teacher's score wherever the teacher
// detects anything, and the proxy's own (cheaper, noisier) false-positive
// process elsewhere. The proxy's score is therefore ≥ the teacher's on
// every unit, which is the property the cascade soundness argument in
// cascade.go rests on.

// DistilledObjectDetector is a recall-complete cheap proxy of a teacher
// object detector. Construct with NewDistilledObjectDetector.
type DistilledObjectDetector struct {
	teacher ObjectDetector
	core    *simCore
}

// NewDistilledObjectDetector builds a proxy of teacher whose extra false
// positives and unit cost come from prof. Draws are deterministic per
// (profile, seed, video, type, unit), like every simulated model.
func NewDistilledObjectDetector(teacher ObjectDetector, prof Profile, seed int64) *DistilledObjectDetector {
	return &DistilledObjectDetector{teacher: teacher, core: newSimCore(prof, seed)}
}

// Name implements ObjectDetector.
func (d *DistilledObjectDetector) Name() string { return d.core.prof.Name }

// UnitCost implements ObjectDetector.
func (d *DistilledObjectDetector) UnitCost() time.Duration { return d.core.prof.UnitCost }

// FrameScore implements ObjectDetector: the one-frame batch.
func (d *DistilledObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	var s [1]float64
	d.FrameScoreBatch(v, typ, frame, s[:])
	return s[0]
}

// FrameDetections implements ObjectDetector: the one-frame events batch.
func (d *DistilledObjectDetector) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	return frameDetections(d, v, typ, frame)
}

// FrameScoreBatch implements BatchObjectScorer: the teacher's score where
// the teacher detects anything, otherwise — on frames where the type is
// absent — the proxy's own false-positive draw.
func (d *DistilledObjectDetector) FrameScoreBatch(v TruthVideo, typ string, start int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	FrameScoreBatch(d.teacher, v, typ, start, dst)
	w := window(v, typ, video.Interval{Start: start, End: start + len(dst) - 1})
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.core, v, typ, v.NumFrames())
	for i, s := range dst {
		if s > 0 || presentIn(*w, start+i) {
			continue
		}
		if fs, ok := dr.falsePositive(start + i); ok {
			dst[i] = fs
		}
	}
}

// AppendFrameEvents implements ObjectEventAppender: frame by frame, the
// teacher's events, or a phantom instance where only the proxy
// hallucinates.
func (d *DistilledObjectDetector) AppendFrameEvents(v TruthVideo, typ string, frames video.Interval, ev *Events) {
	if frames.End < frames.Start {
		return
	}
	teacher := teacherScratch.Get().(*Events)
	defer teacherScratch.Put(teacher)
	teacher.Reset()
	AppendFrameEvents(d.teacher, v, typ, frames, teacher)
	w := window(v, typ, frames)
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.core, v, typ, v.NumFrames())
	k := 0 // the teacher's first event on or after frame
	for frame := frames.Start; frame <= frames.End; frame++ {
		if k < teacher.Len() && int(teacher.Units[k]) == frame {
			for ; k < teacher.Len() && int(teacher.Units[k]) == frame; k++ {
				ev.Append(frame, teacher.Tracks[k], teacher.Scores[k])
			}
		} else if !presentIn(*w, frame) {
			if s, ok := dr.falsePositive(frame); ok {
				ev.Append(frame, dr.phantomID(frame), s)
			}
		}
	}
}

// teacherScratch pools the teacher's events of a proxy's events batch.
var teacherScratch = sync.Pool{New: func() any { return new(Events) }}

// DistilledActionRecognizer is the recall-complete cheap proxy of a teacher
// action recogniser.
type DistilledActionRecognizer struct {
	teacher ActionRecognizer
	core    *simCore
}

// NewDistilledActionRecognizer builds a proxy of teacher whose extra false
// positives and unit cost come from prof.
func NewDistilledActionRecognizer(teacher ActionRecognizer, prof Profile, seed int64) *DistilledActionRecognizer {
	return &DistilledActionRecognizer{teacher: teacher, core: newSimCore(prof, seed)}
}

// Name implements ActionRecognizer.
func (r *DistilledActionRecognizer) Name() string { return r.core.prof.Name }

// UnitCost implements ActionRecognizer.
func (r *DistilledActionRecognizer) UnitCost() time.Duration { return r.core.prof.UnitCost }

// ShotScore implements ActionRecognizer: the one-shot batch.
func (r *DistilledActionRecognizer) ShotScore(v TruthVideo, act string, shot int) float64 {
	var s [1]float64
	r.ShotScoreBatch(v, act, shot, s[:])
	return s[0]
}

// ShotScoreBatch implements BatchActionScorer: the teacher's score where it
// predicts the action, otherwise — on shots without the action — the
// proxy's own false-positive draw.
func (r *DistilledActionRecognizer) ShotScoreBatch(v TruthVideo, act string, start int, dst []float64) {
	ShotScoreBatch(r.teacher, v, act, start, dst)
	var dr draws
	dr.start(r.core, v, act, v.Geometry().NumShots(v.NumFrames()))
	for i, s := range dst {
		if s > 0 || v.ActionAt(act, start+i) {
			continue
		}
		if fs, ok := dr.falsePositive(start + i); ok {
			dst[i] = fs
		}
	}
}
