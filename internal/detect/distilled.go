package detect

import "svqact/internal/video"

// Recall-complete distilled proxies. A distilled student compresses an
// accurate teacher into a fraction of the inference cost; tuned for cascade
// duty, it never misses a unit the teacher would score, at the price of
// extra false positives the teacher then vetoes. The simulated proxy scores
// the teacher's score wherever the teacher detects anything and its own
// false-positive draw elsewhere, so it is ≥ the teacher on every unit — the
// property cascade.go's soundness argument rests on. It invokes its teacher
// at its own attempt, so it fails wherever the teacher does.

// teacherTau is the threshold a proxy scoring at tau passes its teacher
// (the table at Scorer.tauAt). A teacher's 0 must keep meaning "detects
// nothing", so the teacher may decide only above: it gets tau where that is
// the only decidable side, or where tau asks for full scores already, and
// 0 — full scores — elsewhere.
func teacherTau(tau float64) float64 {
	if above, below := decidable(tau); above && !below || !(tau > 0) {
		return tau
	}
	return 0
}

// DistilledObjectDetector is a recall-complete cheap proxy of a teacher
// object detector.
type DistilledObjectDetector struct {
	*simCore
	teacher ObjectDetector
}

// NewDistilledObjectDetector builds a proxy of teacher whose extra false
// positives and unit cost come from prof. Draws are deterministic per
// (profile, seed, video, type, unit), like every simulated model.
func NewDistilledObjectDetector(teacher ObjectDetector, prof Profile, seed int64) *DistilledObjectDetector {
	return &DistilledObjectDetector{newSimCore(prof, seed), teacher}
}

// FrameScore implements ObjectDetector.
func (d *DistilledObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return unitScore(d, v, typ, frame)
}

// Score implements Model: the teacher's score where the teacher detects
// anything, otherwise — on frames where the type is absent — the proxy's
// own false-positive draw, decided at tau. The teacher scores at teacherTau,
// every unit: a proxy that scores higher can decide need sooner.
func (d *DistilledObjectDetector) Score(v TruthVideo, typ string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	n, err := d.teacher.Score(v, typ, start, dst, teacherTau(tau), Need{}, attempt)
	if n == 0 {
		return need.stop(dst, 0, tau, err)
	}
	w := window(v, typ, video.Interval{Start: start, End: start + n - 1})
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.simCore, v, typ, v.NumFrames(), tau)
	for i, s := range dst[:n] {
		if s > 0 || presentIn(*w, start+i) {
			continue
		}
		dst[i] = dr.falsePositive(start + i)
	}
	return need.stop(dst, n, tau, err)
}

// Events implements ObjectDetector: frame by frame, the teacher's events,
// or a phantom instance where only the proxy hallucinates.
func (d *DistilledObjectDetector) Events(v TruthVideo, typ string, frames video.Interval, ev *Events, attempt int) (int, error) {
	w := window(v, typ, frames)
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.simCore, v, typ, v.NumFrames(), 0)
	for f := frames.Start; f <= frames.End; f++ {
		n := ev.Len()
		if _, err := d.teacher.Events(v, typ, video.Interval{Start: f, End: f}, ev, attempt); err != nil {
			return f - frames.Start, err
		}
		if ev.Len() > n || presentIn(*w, f) {
			continue
		}
		if s := dr.falsePositive(f); s > 0 {
			ev.Append(f, dr.phantomID(f), s)
		}
	}
	return frames.Len(), nil
}

// DistilledActionRecognizer is the recall-complete cheap proxy of a teacher
// action recogniser.
type DistilledActionRecognizer struct {
	*simCore
	teacher ActionRecognizer
}

// NewDistilledActionRecognizer builds a proxy of teacher whose extra false
// positives and unit cost come from prof.
func NewDistilledActionRecognizer(teacher ActionRecognizer, prof Profile, seed int64) *DistilledActionRecognizer {
	return &DistilledActionRecognizer{newSimCore(prof, seed), teacher}
}

// Score implements Model: the teacher's score where it predicts the action,
// otherwise — on shots without the action — the proxy's own false-positive
// draw, decided at tau; the teacher scores at teacherTau.
func (r *DistilledActionRecognizer) Score(v TruthVideo, act string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	n, err := r.teacher.Score(v, act, start, dst, teacherTau(tau), Need{}, attempt)
	var dr draws
	dr.start(r.simCore, v, act, v.Geometry().NumShots(v.NumFrames()), tau)
	for i, s := range dst[:n] {
		if s > 0 || v.ActionAt(act, start+i) {
			continue
		}
		dst[i] = dr.falsePositive(start + i)
	}
	return need.stop(dst, n, tau, err)
}
