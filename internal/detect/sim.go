package detect

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"svqact/internal/video"
)

// simCore holds the machinery every simulated model shares: profile-driven
// sampling plus a deterministic false-positive burst overlay per (video,
// label), materialised on use and kept in a bounded cache.
type simCore struct {
	prof Profile
	seed uint64
	// overlays is a direct-mapped, lock-free cache of burst overlays indexed
	// by the batch's draw key. An overlay is a pure function of its key and
	// length, so a slot that was overwritten only costs a recomputation,
	// never a different draw.
	overlays [overlaySlots]atomic.Pointer[overlay]
}

// overlaySlots is the size of a model's overlay cache: 8 KB of pointers.
const overlaySlots = 1024

// overlay is one cached burst overlay and the (video, label) it belongs to.
type overlay struct {
	key            uint64
	units          int
	videoID, label string
	bursts         video.IntervalSet
}

func newSimCore(prof Profile, seed int64) *simCore {
	return &simCore{prof: prof, seed: keyed(uint64(seed), hashString(prof.Name))}
}

// Name implements Model: the profile's name.
func (c *simCore) Name() string { return c.prof.Name }

// UnitCost implements Model: the profile's unit cost.
func (c *simCore) UnitCost() time.Duration { return c.prof.UnitCost }

// trackScratch pools the per-batch track windows; models are shared across
// fleet workers, so the scratch cannot live on the model.
var trackScratch = sync.Pool{New: func() any { s := make([]video.Track, 0, 16); return &s }}

// window lists the type's tracks visible in frames into pooled scratch;
// the caller puts it back in trackScratch.
func window(v TruthVideo, typ string, frames video.Interval) *[]video.Track {
	w := trackScratch.Get().(*[]video.Track)
	*w = v.AppendTracks(typ, frames, (*w)[:0])
	return w
}

// presentIn reports whether some track of the window is visible on the
// frame, which is exactly "the type is present".
func presentIn(w []video.Track, frame int) bool {
	for _, t := range w {
		if t.Frames.Contains(frame) {
			return true
		}
	}
	return false
}

// burstOverlay returns the false-positive burst intervals for a label in a
// video units long, from the cache or generated. Bursts are an alternating
// renewal process drawn from a stream seeded by (model, video, label) only —
// key is the batch's draw key — so they are identical on every pass over the
// video. A hit is one atomic load and a compare; a miss generates the
// overlay and replaces the slot's.
func (c *simCore) burstOverlay(videoID, label string, key uint64, units int) video.IntervalSet {
	if c.prof.FPBurstGap <= 0 || c.prof.FPBurstLen <= 0 {
		return video.IntervalSet{}
	}
	slot := &c.overlays[key%overlaySlots]
	if o := slot.Load(); o != nil && o.key == key && o.units == units && o.videoID == videoID && o.label == label {
		return o.bursts
	}
	state := fold(key, 0xb02575)
	exp := func(mean float64) float64 { // unitFloat < 1, so the log is finite
		state = mix64(state + 0x9e3779b97f4a7c15)
		return -mean * math.Log(1-unitFloat(state))
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
	slot.Store(&overlay{key: key, units: units, videoID: videoID, label: label, bursts: s})
	return s
}

// draws is one batch's view of a model's randomness for one (video, label).
// keyed is a left fold, so every per-unit key keyed(seed, h(video),
// h(label), unit, …) continues from key: the two string hashes, their three
// folds and the overlay lookup (at the batch's first false-positive draw)
// are paid once per batch, not once per unit. Units must be drawn in
// ascending order — bursts is a cursor.
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
	// tau is the batch's threshold (≤ 0: full scores); tp and fp are the
	// two score distributions' radius bounds at tau, computed at their first
	// draw: a batch that draws none pays no exp.
	tau    float64
	tp, fp cutoff
}

// start begins a batch of c's draws over a label of a video units units
// long at threshold tau, in place: a returned draws would be copied on every
// one-unit call.
func (d *draws) start(c *simCore, v TruthVideo, label string, units int, tau float64) {
	d.c, d.videoID, d.label, d.units = c, v.ID(), label, units
	d.hv, d.hl = hashString(d.videoID), hashString(label)
	d.key = keyed(c.seed, d.hv, d.hl)
	d.bursts, d.overlaid = nil, false
	d.tau, d.tp, d.fp = tau, cutoff{}, cutoff{}
}

// score is the clamped-normal score of the draw keyed h — or, when the
// cutoff c of its distribution decides it, tau or 0 by the side of tau the
// score falls on.
func (d *draws) score(h uint64, mean, std float64, c *cutoff) float64 {
	if !c.ready {
		*c = newCutoff(mean, std, d.tau)
	}
	u1 := radiusUniform(h)
	if u1 > c.u1 {
		if c.above {
			return d.tau
		}
		return 0
	}
	return clampScore(mean + std*boxMuller(h, u1))
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

// falsePositive is the model's score for the absent label on the unit: a
// hallucination's score, or 0.
func (d *draws) falsePositive(unit int) float64 {
	p := d.c.prof.FPIID
	if d.inBurst(unit) {
		p = d.c.prof.FPWithinBurst
	}
	h := fold(fold(d.key, uint64(unit)), 0xfa15e)
	if p <= 0 || unitFloat(h) >= p {
		return 0
	}
	return d.score(mix64(h^0x5c0e), d.c.prof.FPScoreMean, d.c.prof.FPScoreStd, &d.fp)
}

// truePositive is the model's score for a truly present instance, 0 when it
// misses it. The extra key distinguishes instances sharing a frame.
func (d *draws) truePositive(unit int, extra uint64) float64 {
	h := fold(fold(fold(d.key, uint64(unit)), extra), 0x7b0e)
	if unitFloat(h) >= d.c.prof.TPR {
		return 0
	}
	return d.score(mix64(h^0x3d09), d.c.prof.TPScoreMean, d.c.prof.TPScoreStd, &d.tp)
}

// phantomID is a hallucination's identity: stable per ~3-second window so
// the tracker-level aggregation sees one phantom instance rather than many,
// and negative so it never collides with a ground-truth track.
func (d *draws) phantomID(frame int) int64 {
	return int64(-1 - int(keyed(d.hv, d.hl, uint64(frame/30))%1_000_000))
}

// frame appends one frame's detections to ev, drawn from the batch's track
// window: a true-positive draw per track visible on it, or the
// false-positive draw when none is.
func (d *draws) frame(w []video.Track, frame int, ev *Events) {
	present := false
	for _, t := range w {
		if !t.Frames.Contains(frame) {
			continue
		}
		present = true
		if s := d.truePositive(frame, uint64(t.TrackID)); s > 0 {
			ev.Append(frame, int64(t.TrackID), s)
		}
	}
	if s := 0.0; !present {
		if s = d.falsePositive(frame); s > 0 {
			ev.Append(frame, d.phantomID(frame), s)
		}
	}
}

// SimObjectDetector samples object detections from a noise profile against
// ground truth. It never fails.
type SimObjectDetector struct {
	*simCore
}

// NewObjectDetector builds a simulated object detector from a profile. The
// seed lets experiments draw independent noise realisations; the detections
// for a fixed (profile, seed) are deterministic.
func NewObjectDetector(prof Profile, seed int64) *SimObjectDetector {
	return &SimObjectDetector{newSimCore(prof, seed)}
}

// FrameScore implements ObjectDetector.
func (d *SimObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	var s [1]float64
	d.Score(v, typ, frame, s[:], 0, Need{}, 0)
	return s[0]
}

// Score implements Model: each frame's best detection, 0 when there is
// none — the draws of frame, in a loop of its own because it is the online
// hot path. The batch reads one track window and one draw key. At tau > 0 a
// frame stops at its first track scoring ≥ tau: the max cannot fall back,
// and draws are keyed, so the skipped ones change nothing else.
func (d *SimObjectDetector) Score(v TruthVideo, typ string, start int, dst []float64, tau float64, need Need, _ int) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	w := window(v, typ, video.Interval{Start: start, End: start + len(dst) - 1})
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.simCore, v, typ, v.NumFrames(), tau)
	stop, pos := need.Count > 0, 0
	for i := range dst {
		if stop && need.decided(pos, len(dst)-i) {
			return i, nil
		}
		frame, present := start+i, false
		dst[i] = 0
		for _, t := range *w {
			if !t.Frames.Contains(frame) {
				continue
			}
			present = true
			if dst[i] = max(dst[i], dr.truePositive(frame, uint64(t.TrackID))); tau > 0 && dst[i] >= tau {
				break
			}
		}
		if !present {
			dst[i] = dr.falsePositive(frame)
		}
		if stop && dst[i] >= tau {
			pos++
		}
	}
	return len(dst), nil
}

// Events implements ObjectDetector: the same draws as Score, every
// detection appended.
func (d *SimObjectDetector) Events(v TruthVideo, typ string, frames video.Interval, ev *Events, _ int) (int, error) {
	if frames.End < frames.Start {
		return 0, nil
	}
	w := window(v, typ, frames)
	defer trackScratch.Put(w)
	var dr draws
	dr.start(d.simCore, v, typ, v.NumFrames(), 0)
	for frame := frames.Start; frame <= frames.End; frame++ {
		dr.frame(*w, frame, ev)
	}
	return frames.Len(), nil
}

// SimActionRecognizer samples per-shot classifications from a noise
// profile. It never fails.
type SimActionRecognizer struct {
	*simCore
}

// NewActionRecognizer builds a simulated action recogniser from a profile.
func NewActionRecognizer(prof Profile, seed int64) *SimActionRecognizer {
	return &SimActionRecognizer{newSimCore(prof, seed)}
}

// Score implements Model: a shot showing the action takes the true-positive
// draw, any other the false-positive draw, all from one draw key.
func (r *SimActionRecognizer) Score(v TruthVideo, act string, start int, dst []float64, tau float64, need Need, _ int) (int, error) {
	var dr draws
	dr.start(r.simCore, v, act, v.Geometry().NumShots(v.NumFrames()), tau)
	stop, pos := need.Count > 0, 0
	for i := range dst {
		if stop && need.decided(pos, len(dst)-i) {
			return i, nil
		}
		if shot := start + i; v.ActionAt(act, shot) {
			dst[i] = dr.truePositive(shot, 0)
		} else {
			dst[i] = dr.falsePositive(shot)
		}
		if stop && dst[i] >= tau {
			pos++
		}
	}
	return len(dst), nil
}
