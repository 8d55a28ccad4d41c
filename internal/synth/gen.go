package synth

import (
	"fmt"
	"sort"

	"svqact/internal/video"
)

// Generate materialises a script into a Video with scripted ground truth.
// Generation is deterministic: the same script (including Seed) always
// produces the same video.
//
// Occurrences are drawn from per-unit Bernoulli start processes — at each
// occurrence unit not already covered, an occurrence starts with probability
// rate(unit)/meanGap and lasts 1 + Exp(meanDur-1) units — which realises a
// (possibly non-homogeneous) alternating renewal process one unit at a time.
func Generate(s Script) (*Video, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	v := &Video{
		Meta: video.Meta{
			ID:        s.ID,
			NumFrames: s.Frames,
			FPS:       s.FPS,
			Geometry:  s.Geometry,
		},
		objects: make(map[string]objectTruth, len(s.Objects)),
		actions: make(map[string]video.IntervalSet, len(s.Actions)),
	}
	numShots := s.Geometry.NumShots(s.Frames)

	for _, a := range s.Actions {
		r := newRNG(uint64(s.Seed), hashKey(s.ID), hashKey("action"), hashKey(a.Name))
		occ := renewal(r, numShots, a.MeanGapShots, a.MeanDurShots, a.Rate)
		v.actions[a.Name] = video.NewIntervalSet(occ...)
	}

	nextTrack := 1
	for _, o := range s.Objects {
		r := newRNG(uint64(s.Seed), hashKey(s.ID), hashKey("object"), hashKey(o.Name))
		var apps []Appearance

		if o.MeanGapFrames > 0 {
			for _, iv := range renewal(r, s.Frames, o.MeanGapFrames, o.MeanDurFrames, o.Rate) {
				apps = append(apps, Appearance{TrackID: nextTrack, Frames: iv})
				nextTrack++
			}
		}

		if o.CorrelatedWith != "" {
			g := s.Geometry
			for _, shots := range v.actions[o.CorrelatedWith].Intervals() {
				if r.float64() >= o.CorrelationProb {
					continue
				}
				frames := video.Interval{
					Start: g.FrameRangeOfShot(shots.Start).Start,
					End:   g.FrameRangeOfShot(shots.End).End,
				}
				// The accompanying object typically enters a little before
				// and lingers a little after the action.
				lead := int(r.exp(float64(g.FramesPerShot)))
				tail := int(r.exp(float64(g.FramesPerShot)))
				frames.Start = max(0, frames.Start-lead)
				frames.End = min(s.Frames-1, frames.End+tail)
				if frames.Len() <= 0 {
					continue
				}
				apps = append(apps, Appearance{TrackID: nextTrack, Frames: frames})
				nextTrack++
			}
		}

		sort.Slice(apps, func(i, j int) bool { return apps[i].Frames.Start < apps[j].Frames.Start })
		v.objects[o.Name] = newObjectTruth(apps)
	}
	return v, nil
}

// MustGenerate is Generate for statically known-good scripts (benchmark
// definitions); it panics on error.
func MustGenerate(s Script) *Video {
	v, err := Generate(s)
	if err != nil {
		panic(fmt.Sprintf("synth: %v", err))
	}
	return v
}

// renewal draws occurrence intervals over [0, units) with per-unit start
// probability rate(unit)/meanGap outside occurrences and duration
// 1 + Exp(meanDur-1).
func renewal(r *rng, units int, meanGap, meanDur float64, rate RateFn) []video.Interval {
	var out []video.Interval
	base := 1 / meanGap
	for u := 0; u < units; u++ {
		p := base
		if rate != nil {
			p *= rate(u)
		}
		if p < 0 {
			p = 0
		}
		if r.float64() >= p {
			continue
		}
		dur := 1
		if meanDur > 1 {
			dur = 1 + int(r.exp(meanDur-1))
		}
		end := min(units-1, u+dur-1)
		out = append(out, video.Interval{Start: u, End: end})
		u = end // skip past the occurrence before sampling the next start
	}
	return out
}
