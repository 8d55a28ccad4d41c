package detect

import (
	"math"
	"sort"
	"sync"
	"time"

	"svqact/internal/video"
)

// simCore holds the machinery shared by the simulated object detector and
// action recogniser: profile-driven sampling plus a lazily materialised,
// deterministic false-positive burst overlay per (video, type).
type simCore struct {
	prof Profile
	seed uint64

	mu sync.Mutex
	// overlays is keyed video ID → type, two levels instead of a
	// concatenated string so the per-batch lookup allocates nothing.
	overlays map[string]map[string]video.IntervalSet
}

func newSimCore(prof Profile, seed int64) *simCore {
	return &simCore{
		prof:     prof,
		seed:     keyed(uint64(seed), hashString(prof.Name)),
		overlays: make(map[string]map[string]video.IntervalSet),
	}
}

// trackScratch pools the per-batch track windows of the simulated models;
// detectors are shared across fleet workers, so the scratch cannot live on
// the detector itself.
var trackScratch = sync.Pool{New: func() any { s := make([]video.Track, 0, 16); return &s }}

// window lists the type's tracks visible in frames into pooled scratch;
// the caller puts it back in trackScratch.
func window(v TruthVideo, typ string, frames video.Interval) *[]video.Track {
	w := trackScratch.Get().(*[]video.Track)
	*w = v.AppendTracks(typ, frames, (*w)[:0])
	return w
}

// presentIn reports whether some track of the window is visible on the
// frame: presence is the union of the appearances, so this is exactly
// "the type is present".
func presentIn(w []video.Track, frame int) bool {
	for _, t := range w {
		if t.Frames.Contains(frame) {
			return true
		}
	}
	return false
}

// burstOverlay returns the false-positive burst intervals for a type in a
// video, generating them on first use. Bursts are an alternating renewal
// process drawn from a stream seeded by (model, video, type) only — key is
// the batch's draw key — so they are identical on every pass over the video.
func (c *simCore) burstOverlay(videoID, typ string, key uint64, units int) video.IntervalSet {
	if c.prof.FPBurstGap <= 0 || c.prof.FPBurstLen <= 0 {
		return video.IntervalSet{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	byType := c.overlays[videoID]
	if s, ok := byType[typ]; ok {
		return s
	}
	if byType == nil {
		byType = make(map[string]video.IntervalSet)
		c.overlays[videoID] = byType
	}
	state := fold(key, 0xb02575)
	next := func() float64 {
		state = mix64(state + 0x9e3779b97f4a7c15)
		return unitFloat(state)
	}
	exp := func(mean float64) float64 {
		u := next()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		return -mean * math.Log(1-u)
	}
	var ivs []video.Interval
	pos := 0
	for {
		pos += 1 + int(exp(c.prof.FPBurstGap))
		if pos >= units {
			break
		}
		end := min(units-1, pos+int(exp(c.prof.FPBurstLen)))
		ivs = append(ivs, video.Interval{Start: pos, End: end})
		pos = end + 1
	}
	s := video.NewIntervalSet(ivs...)
	byType[typ] = s
	return s
}

// draws is one batch's view of a model's randomness for one (video, label).
// keyed is a left fold, so every per-unit key keyed(seed, h(video),
// h(label), unit, …) continues from key: the two string hashes, their three
// folds and the overlay lookup (one lock, taken at the batch's first
// false-positive draw) are paid once per batch, not once per unit. Units
// must be drawn in ascending order — bursts is a cursor.
type draws struct {
	c              *simCore
	videoID, label string
	units          int // the video's length in the label's units
	// key is keyed(seed, h(video), h(label)); hv and hl are the two hashes.
	key, hv, hl uint64
	// bursts are the overlay's intervals from the first that ends at or
	// after the last unit drawn, once overlaid is set.
	bursts   []video.Interval
	overlaid bool
}

// start begins a batch of c's draws over a label of a video units units
// long. It sets the fields in place: a draws returned by value would be
// copied on every one-unit call.
func (d *draws) start(c *simCore, v TruthVideo, label string, units int) {
	d.c, d.videoID, d.label, d.units = c, v.ID(), label, units
	d.hv, d.hl = hashString(d.videoID), hashString(label)
	d.key = keyed(c.seed, d.hv, d.hl)
	d.bursts, d.overlaid = nil, false
}

// inBurst reports whether the unit lies in a false-positive burst.
func (d *draws) inBurst(unit int) bool {
	if !d.overlaid {
		ivs := d.c.burstOverlay(d.videoID, d.label, d.key, d.units).Intervals()
		d.bursts = ivs[sort.Search(len(ivs), func(i int) bool { return ivs[i].End >= unit }):]
		d.overlaid = true
	}
	for len(d.bursts) > 0 && d.bursts[0].End < unit {
		d.bursts = d.bursts[1:]
	}
	return len(d.bursts) > 0 && d.bursts[0].Start <= unit
}

// falsePositive decides whether the model hallucinates the absent label on
// the unit and, if so, returns the score.
func (d *draws) falsePositive(unit int) (float64, bool) {
	p := d.c.prof.FPIID
	if d.inBurst(unit) {
		p = d.c.prof.FPWithinBurst
	}
	if p <= 0 {
		return 0, false
	}
	h := fold(fold(d.key, uint64(unit)), 0xfa15e)
	if unitFloat(h) >= p {
		return 0, false
	}
	return clampScore(d.c.prof.FPScoreMean + d.c.prof.FPScoreStd*gauss(mix64(h^0x5c0e))), true
}

// truePositive decides whether a truly present instance is detected and
// scored. The extra key distinguishes instances sharing a frame.
func (d *draws) truePositive(unit int, extra uint64) (float64, bool) {
	h := fold(fold(fold(d.key, uint64(unit)), extra), 0x7b0e)
	if unitFloat(h) >= d.c.prof.TPR {
		return 0, false
	}
	return clampScore(d.c.prof.TPScoreMean + d.c.prof.TPScoreStd*gauss(mix64(h^0x3d09))), true
}

// phantomID is a hallucination's identity: stable per ~3-second window so
// the tracker-level aggregation sees one phantom instance rather than many,
// and negative so it never collides with a ground-truth track.
func (d *draws) phantomID(frame int) int64 {
	return int64(-1 - int(keyed(d.hv, d.hl, uint64(frame/30))%1_000_000))
}

// SimObjectDetector is an ObjectDetector that samples detections from a
// noise profile against ground truth. Construct with NewObjectDetector.
type SimObjectDetector struct {
	core *simCore
}

// NewObjectDetector builds a simulated object detector from a profile. The
// seed lets experiments draw independent noise realisations; the detections
// for a fixed (profile, seed) are deterministic.
func NewObjectDetector(prof Profile, seed int64) *SimObjectDetector {
	return &SimObjectDetector{core: newSimCore(prof, seed)}
}

// Name implements ObjectDetector.
func (d *SimObjectDetector) Name() string { return d.core.prof.Name }

// UnitCost implements ObjectDetector.
func (d *SimObjectDetector) UnitCost() time.Duration { return d.core.prof.UnitCost }

// FrameScore implements ObjectDetector: the one-frame batch.
func (d *SimObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	var s [1]float64
	d.FrameScoreBatch(v, typ, frame, s[:])
	return s[0]
}

// FrameDetections implements ObjectDetector: the one-frame events batch.
func (d *SimObjectDetector) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	return frameDetections(d, v, typ, frame)
}

// FrameScoreBatch implements BatchObjectScorer: a frame's score is the best
// detected instance among the tracks visible on it, or the false-positive
// draw when none is. The batch reads one track window and one draw key.
func (d *SimObjectDetector) FrameScoreBatch(v TruthVideo, typ string, start int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	w := window(v, typ, video.Interval{Start: start, End: start + len(dst) - 1})
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.core, v, typ, v.NumFrames())
	for i := range dst {
		frame := start + i
		best, present := 0.0, false
		for _, t := range *w {
			if !t.Frames.Contains(frame) {
				continue
			}
			present = true
			if s, ok := dr.truePositive(frame, uint64(t.TrackID)); ok && s > best {
				best = s
			}
		}
		if !present {
			if s, ok := dr.falsePositive(frame); ok {
				best = s
			}
		}
		dst[i] = best
	}
}

// AppendFrameEvents implements ObjectEventAppender: the same draws as
// FrameScoreBatch, every detection appended in frame order and, within a
// frame, in track order.
func (d *SimObjectDetector) AppendFrameEvents(v TruthVideo, typ string, frames video.Interval, ev *Events) {
	if frames.End < frames.Start {
		return
	}
	w := window(v, typ, frames)
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.core, v, typ, v.NumFrames())
	for frame := frames.Start; frame <= frames.End; frame++ {
		present := false
		for _, t := range *w {
			if !t.Frames.Contains(frame) {
				continue
			}
			present = true
			if s, ok := dr.truePositive(frame, uint64(t.TrackID)); ok {
				ev.Append(frame, int64(t.TrackID), s)
			}
		}
		if !present {
			if s, ok := dr.falsePositive(frame); ok {
				ev.Append(frame, dr.phantomID(frame), s)
			}
		}
	}
}

// SimActionRecognizer is an ActionRecognizer sampling per-shot
// classifications from a noise profile.
type SimActionRecognizer struct {
	core *simCore
}

// NewActionRecognizer builds a simulated action recogniser from a profile.
func NewActionRecognizer(prof Profile, seed int64) *SimActionRecognizer {
	return &SimActionRecognizer{core: newSimCore(prof, seed)}
}

// Name implements ActionRecognizer.
func (r *SimActionRecognizer) Name() string { return r.core.prof.Name }

// UnitCost implements ActionRecognizer.
func (r *SimActionRecognizer) UnitCost() time.Duration { return r.core.prof.UnitCost }

// ShotScore implements ActionRecognizer: the one-shot batch.
func (r *SimActionRecognizer) ShotScore(v TruthVideo, act string, shot int) float64 {
	var s [1]float64
	r.ShotScoreBatch(v, act, shot, s[:])
	return s[0]
}

// ShotScoreBatch implements BatchActionScorer: a shot showing the action
// takes the true-positive draw, any other the false-positive draw, all from
// one draw key.
func (r *SimActionRecognizer) ShotScoreBatch(v TruthVideo, act string, start int, dst []float64) {
	var dr draws
	dr.start(r.core, v, act, v.Geometry().NumShots(v.NumFrames()))
	for i := range dst {
		shot := start + i
		var s float64
		var ok bool
		if v.ActionAt(act, shot) {
			s, ok = dr.truePositive(shot, 0)
		} else {
			s, ok = dr.falsePositive(shot)
		}
		if !ok {
			s = 0
		}
		dst[i] = s
	}
}
