package synth

import (
	"fmt"
	"sort"

	"svqact/internal/video"
)

// Concat presents a collection of videos as one continuous stream, the way
// the benchmark feeds a query's video set to the online engine. Each
// component video is trimmed to whole clips so clip and shot boundaries stay
// aligned across the seam. Tracking identities are namespaced per component
// so they remain unique in the concatenation.
type Concat struct {
	id       string
	geometry video.Geometry
	videos   []*Video
	// frameOff[i] is the first global frame of component i; frames is the
	// total length.
	frameOff []int
	frames   int
}

// trackStride separates the tracking-ID namespaces of concatenated videos.
const trackStride = 10_000_000

// NewConcat builds the concatenation. All component videos must share the
// same geometry.
func NewConcat(id string, videos []*Video) (*Concat, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("synth: concat of zero videos")
	}
	g := videos[0].Meta.Geometry
	c := &Concat{id: id, geometry: g, videos: videos}
	off := 0
	for _, v := range videos {
		if v.Meta.Geometry != g {
			return nil, fmt.Errorf("synth: concat mixes geometries (%v vs %v)", v.Meta.Geometry, g)
		}
		c.frameOff = append(c.frameOff, off)
		off += v.Meta.NumClips() * g.FramesPerClip()
	}
	c.frames = off
	return c, nil
}

// ID implements detect.TruthVideo.
func (c *Concat) ID() string { return c.id }

// NumFrames implements detect.TruthVideo.
func (c *Concat) NumFrames() int { return c.frames }

// Geometry implements detect.TruthVideo.
func (c *Concat) Geometry() video.Geometry { return c.geometry }

// locate maps a global frame to (component index, local frame).
func (c *Concat) locate(frame int) (int, int) {
	i := sort.Search(len(c.frameOff), func(i int) bool { return c.frameOff[i] > frame }) - 1
	return i, frame - c.frameOff[i]
}

// ObjectTypes implements detect.TruthVideo: the union over components.
func (c *Concat) ObjectTypes() []string {
	seen := map[string]bool{}
	for _, v := range c.videos {
		for _, t := range v.ObjectTypes() {
			seen[t] = true
		}
	}
	return sortedNames(seen)
}

// ActionTypes implements detect.TruthVideo.
func (c *Concat) ActionTypes() []string {
	seen := map[string]bool{}
	for _, v := range c.videos {
		for _, t := range v.ActionTypes() {
			seen[t] = true
		}
	}
	return sortedNames(seen)
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// AppendTracks implements detect.TruthVideo. Each component contributes its
// tracks visible in its part of frames, with IDs moved into the component's
// namespace and Frames moved to global frames and clamped to the
// component's trimmed extent: an appearance that outlives the last whole
// clip of its video must not cover the next video's first frames.
func (c *Concat) AppendTracks(typ string, frames video.Interval, dst []video.Track) []video.Track {
	first, _ := c.locate(max(frames.Start, 0))
	for i := first; i < len(c.videos) && c.frameOff[i] <= frames.End; i++ {
		off, end := c.frameOff[i], c.frames-1
		if i+1 < len(c.videos) {
			end = c.frameOff[i+1] - 1
		}
		part, ok := frames.Intersect(video.Interval{Start: off, End: end})
		if !ok {
			continue // a component too short for one whole clip
		}
		n := len(dst)
		dst = c.videos[i].AppendTracks(typ, video.Interval{Start: part.Start - off, End: part.End - off}, dst)
		for j := n; j < len(dst); j++ {
			t := &dst[j]
			t.TrackID += (i + 1) * trackStride
			t.Frames = video.Interval{Start: t.Frames.Start + off, End: min(t.Frames.End+off, end)}
		}
	}
	return dst
}

// ActionAt implements detect.TruthVideo.
func (c *Concat) ActionAt(act string, shot int) bool {
	frame := shot * c.geometry.FramesPerShot
	i, local := c.locate(frame)
	return c.videos[i].ActionAt(act, c.geometry.ShotOfFrame(local))
}

// TruthFrames returns the concatenated ground-truth frame set for a query.
func (c *Concat) TruthFrames(q QuerySpec) video.IntervalSet {
	var ivs []video.Interval
	for i, v := range c.videos {
		limit := v.Meta.NumClips()*c.geometry.FramesPerClip() - 1
		for _, iv := range v.TruthFrames(q).Clamp(video.Interval{Start: 0, End: limit}).Intervals() {
			ivs = append(ivs, video.Interval{Start: iv.Start + c.frameOff[i], End: iv.End + c.frameOff[i]})
		}
	}
	return video.NewIntervalSet(ivs...)
}

// TruthClips returns the concatenated clip-level ground truth (minCover
// semantics as in Video.TruthClips).
func (c *Concat) TruthClips(q QuerySpec, minCover float64) video.IntervalSet {
	fpc := c.geometry.FramesPerClip()
	var ivs []video.Interval
	for i, v := range c.videos {
		clipOff := c.frameOff[i] / fpc
		for _, iv := range v.TruthClips(q, minCover).Intervals() {
			if iv.End >= v.Meta.NumClips() {
				continue // trimmed partial clip
			}
			ivs = append(ivs, video.Interval{Start: iv.Start + clipOff, End: iv.End + clipOff})
		}
	}
	return video.NewIntervalSet(ivs...)
}

// ObjectFrames returns the concatenated frame intervals during which the
// object type is present.
func (c *Concat) ObjectFrames(typ string) video.IntervalSet {
	var ivs []video.Interval
	for i, v := range c.videos {
		limit := v.Meta.NumClips()*c.geometry.FramesPerClip() - 1
		for _, iv := range v.ObjectPresence(typ).Clamp(video.Interval{Start: 0, End: limit}).Intervals() {
			ivs = append(ivs, video.Interval{Start: iv.Start + c.frameOff[i], End: iv.End + c.frameOff[i]})
		}
	}
	return video.NewIntervalSet(ivs...)
}

// ActionShots returns the concatenated shot intervals during which the
// action occurs.
func (c *Concat) ActionShots(act string) video.IntervalSet {
	fps := c.geometry.FramesPerShot
	var ivs []video.Interval
	for i, v := range c.videos {
		limit := v.Meta.NumClips()*c.geometry.ShotsPerClip - 1
		shotOff := c.frameOff[i] / fps
		for _, iv := range v.ActionPresence(act).Clamp(video.Interval{Start: 0, End: limit}).Intervals() {
			ivs = append(ivs, video.Interval{Start: iv.Start + shotOff, End: iv.End + shotOff})
		}
	}
	return video.NewIntervalSet(ivs...)
}

// Components returns the underlying videos.
func (c *Concat) Components() []*Video { return c.videos }
