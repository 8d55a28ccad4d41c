// Package video models the structural decomposition of a video used
// throughout the engine: a video is a sequence of frames; a fixed number of
// consecutive frames forms a shot (the input unit of action recognition); a
// fixed number of consecutive shots forms a clip (the unit at which query
// predicates are decided); and a maximal run of consecutive positive clips
// forms a result sequence.
//
// The package also provides the interval algebra (union, intersection via an
// interval sweep, IoU) used both by the online sequence merger and by the
// offline engine when intersecting per-predicate positive-clip ranges.
package video

import "fmt"

// Geometry fixes the frame/shot/clip hierarchy of a video. Frames are the
// occurrence unit for object detection, shots for action recognition, and
// clips are the granularity at which query predicates are decided.
type Geometry struct {
	// FramesPerShot is the shot length in frames. Action recognisers in the
	// literature consume shots of 10-30 frames.
	FramesPerShot int
	// ShotsPerClip is the clip length in shots. The clip length is the main
	// tunable of the engine (evaluated in the paper's Figures 4 and 5).
	ShotsPerClip int
}

// DefaultGeometry mirrors the paper's running example: 10-frame shots and
// 5-shot clips, i.e. 50-frame clips.
var DefaultGeometry = Geometry{FramesPerShot: 10, ShotsPerClip: 5}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.FramesPerShot <= 0 {
		return fmt.Errorf("video: FramesPerShot must be positive, got %d", g.FramesPerShot)
	}
	if g.ShotsPerClip <= 0 {
		return fmt.Errorf("video: ShotsPerClip must be positive, got %d", g.ShotsPerClip)
	}
	return nil
}

// FramesPerClip returns the clip length in frames.
func (g Geometry) FramesPerClip() int { return g.FramesPerShot * g.ShotsPerClip }

// ShotOfFrame returns the index of the shot containing frame v.
func (g Geometry) ShotOfFrame(v int) int { return v / g.FramesPerShot }

// ClipOfFrame returns the index of the clip containing frame v.
func (g Geometry) ClipOfFrame(v int) int { return v / g.FramesPerClip() }

// ClipOfShot returns the index of the clip containing shot s.
func (g Geometry) ClipOfShot(s int) int { return s / g.ShotsPerClip }

// FrameRangeOfClip returns the inclusive frame interval covered by clip c.
func (g Geometry) FrameRangeOfClip(c int) Interval {
	fpc := g.FramesPerClip()
	return Interval{Start: c * fpc, End: (c+1)*fpc - 1}
}

// ShotRangeOfClip returns the inclusive shot interval covered by clip c.
func (g Geometry) ShotRangeOfClip(c int) Interval {
	return Interval{Start: c * g.ShotsPerClip, End: (c+1)*g.ShotsPerClip - 1}
}

// FrameRangeOfShot returns the inclusive frame interval covered by shot s.
func (g Geometry) FrameRangeOfShot(s int) Interval {
	return Interval{Start: s * g.FramesPerShot, End: (s+1)*g.FramesPerShot - 1}
}

// FrameRangeOfClips converts an inclusive clip interval to the inclusive
// frame interval it spans.
func (g Geometry) FrameRangeOfClips(clips Interval) Interval {
	fpc := g.FramesPerClip()
	return Interval{Start: clips.Start * fpc, End: (clips.End+1)*fpc - 1}
}

// NumShots returns the number of complete shots in a video of n frames.
func (g Geometry) NumShots(n int) int { return n / g.FramesPerShot }

// NumClips returns the number of complete clips in a video of n frames.
// Trailing frames that do not fill a clip are dropped, matching the paper's
// treatment of the video as a sequence of whole clips.
func (g Geometry) NumClips(n int) int { return n / g.FramesPerClip() }

// Meta identifies a video inside a repository.
type Meta struct {
	// ID is the repository-unique video identifier.
	ID string
	// NumFrames is the total number of frames.
	NumFrames int
	// FPS is frames per second, used only to report durations.
	FPS float64
	// Geometry is the shot/clip decomposition the video was ingested with.
	Geometry Geometry
}

// DurationSeconds reports the play length of the video.
func (m Meta) DurationSeconds() float64 {
	if m.FPS <= 0 {
		return 0
	}
	return float64(m.NumFrames) / m.FPS
}

// NumClips returns the number of complete clips in the video.
func (m Meta) NumClips() int { return m.Geometry.NumClips(m.NumFrames) }

// NumShots returns the number of complete shots in the video.
func (m Meta) NumShots() int { return m.Geometry.NumShots(m.NumFrames) }

// Track is one tracked object instance: the identity a tracker reports for
// it and the contiguous frame interval during which it is visible.
type Track struct {
	TrackID int
	Frames  Interval
}
