package synth

import (
	"math"
	"sort"

	"svqact/internal/video"
)

// Appearance is one tracked instance of an object type: a contiguous frame
// interval during which the instance is visible, carrying the tracking ID
// the simulated tracker reports for it.
type Appearance = video.Track

// Video is a generated video: its metadata plus the scripted ground truth.
type Video struct {
	Meta video.Meta

	objects map[string]objectTruth
	actions map[string]video.IntervalSet // per action, occurrence shots
}

// objectTruth is one object type's scripted ground truth.
type objectTruth struct {
	// apps are the type's appearances sorted by start frame; reach[i] is the
	// largest end frame among apps[:i+1], so the appearances that can still
	// be visible at a frame begin where reach first reaches it.
	apps  []Appearance
	reach []int
	// presence is the union of the appearances' frames.
	presence video.IntervalSet
}

// newObjectTruth indexes appearances sorted by start frame.
func newObjectTruth(apps []Appearance) objectTruth {
	t := objectTruth{apps: apps, reach: make([]int, len(apps))}
	ivs := make([]video.Interval, len(apps))
	for i, a := range apps {
		ivs[i] = a.Frames
		t.reach[i] = a.Frames.End
		if i > 0 {
			t.reach[i] = max(t.reach[i], t.reach[i-1])
		}
	}
	t.presence = video.NewIntervalSet(ivs...)
	return t
}

// ID returns the video identifier.
func (v *Video) ID() string { return v.Meta.ID }

// NumFrames returns the number of frames.
func (v *Video) NumFrames() int { return v.Meta.NumFrames }

// Geometry returns the shot/clip decomposition.
func (v *Video) Geometry() video.Geometry { return v.Meta.Geometry }

// ObjectTypes lists the object types scripted in this video, sorted.
func (v *Video) ObjectTypes() []string {
	names := make([]string, 0, len(v.objects))
	for n := range v.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ActionTypes lists the scripted action types, sorted.
func (v *Video) ActionTypes() []string {
	names := make([]string, 0, len(v.actions))
	for n := range v.actions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ObjectAppearances returns the tracked instances of an object type, sorted
// by start frame. The caller must not mutate the slice.
func (v *Video) ObjectAppearances(typ string) []Appearance { return v.objects[typ].apps }

// ObjectPresence returns the frame intervals during which at least one
// instance of the type is visible.
func (v *Video) ObjectPresence(typ string) video.IntervalSet { return v.objects[typ].presence }

// ActionPresence returns the shot intervals during which the action occurs.
func (v *Video) ActionPresence(act string) video.IntervalSet { return v.actions[act] }

// AppendTracks implements detect.TruthVideo: it appends the type's
// appearances visible on any frame of frames, in start-frame order. No
// appearance before the first whose reach gets to frames.Start can be
// visible, so one binary search finds where to start and the scan stops at
// the first appearance starting after frames.End — one search per window,
// not a scan per frame.
func (v *Video) AppendTracks(typ string, frames video.Interval, dst []video.Track) []video.Track {
	t := v.objects[typ]
	for _, a := range t.apps[sort.SearchInts(t.reach, frames.Start):] {
		if a.Frames.Start > frames.End {
			break
		}
		if a.Frames.End >= frames.Start {
			dst = append(dst, a)
		}
	}
	return dst
}

// ObjectPresentAt reports whether any instance of the type is visible on the
// frame.
func (v *Video) ObjectPresentAt(typ string, frame int) bool {
	return v.objects[typ].presence.Contains(frame)
}

// ActionAt reports whether the action occurs during the shot.
func (v *Video) ActionAt(act string, shot int) bool {
	return v.actions[act].Contains(shot)
}

// TruthFrames returns the ground-truth frame set for a query: the
// intersection of all the query objects' presence intervals with the
// action's occurrence intervals (converted from shots to frames) — exactly
// the paper's annotation rule ("the intersection of the temporal intervals
// of all the query-specified objects and the action").
func (v *Video) TruthFrames(q QuerySpec) video.IntervalSet {
	g := v.Meta.Geometry
	actShots := v.actions[q.Action]
	actFrames := make([]video.Interval, 0, actShots.NumIntervals())
	for _, iv := range actShots.Intervals() {
		actFrames = append(actFrames, video.Interval{
			Start: g.FrameRangeOfShot(iv.Start).Start,
			End:   g.FrameRangeOfShot(iv.End).End,
		})
	}
	acc := video.NewIntervalSet(actFrames...)
	for _, o := range q.Objects {
		acc = acc.IntersectSet(v.objects[o].presence)
	}
	return acc.Clamp(video.Interval{Start: 0, End: v.Meta.NumFrames - 1})
}

// TruthClips maps the ground-truth frame set to clips: a clip belongs to the
// ground truth when the truth frames cover at least minCover of it, where
// minCover = 0 means any non-empty coverage. The engine decides "is the
// query present in this clip", so the natural clip-level ground truth is
// any-coverage (minCover 0); stricter thresholds are available for
// sensitivity studies.
func (v *Video) TruthClips(q QuerySpec, minCover float64) video.IntervalSet {
	g := v.Meta.Geometry
	numClips := v.Meta.NumClips()
	truth := v.TruthFrames(q)
	ind := make([]bool, numClips)
	for c := 0; c < numClips; c++ {
		r := g.FrameRangeOfClip(c)
		covered := truth.Clamp(r).TotalLen()
		need := 1
		if minCover > 0 {
			need = int(math.Ceil(minCover * float64(r.Len())))
		}
		ind[c] = covered >= need
	}
	return video.FromIndicator(ind)
}
