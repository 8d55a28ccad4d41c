package detect

import (
	"math"

	"svqact/internal/video"
)

// Spatial relationships between objects (paper footnote 2): the engine
// treats a relationship predicate as a binary per-frame output derived from
// the object detection outcomes — the relationship holds on a frame when
// some detected instance pair satisfies the geometric condition.
//
// The synthetic world has no pixels, so instance geometry is itself
// synthesised: every tracked instance follows a smooth, deterministic
// horizontal trajectory derived from its identity (a per-instance base
// position plus slow sinusoidal drift). Ground truth and detector both read
// the same trajectory; the detector's errors come from missed or
// hallucinated instances, exactly as for presence predicates.

// Relation names a geometric predicate over two object types.
type Relation string

const (
	// LeftOf holds when an instance of the first type is left of an
	// instance of the second by at least relationMargin.
	LeftOf Relation = "left_of"
	// RightOf is the mirror image.
	RightOf Relation = "right_of"
	// Near holds when instances of the two types are within
	// relationNearDist horizontally.
	Near Relation = "near"
)

// relationMargin is the minimal horizontal separation for LeftOf/RightOf,
// in normalised image coordinates [0, 1].
const relationMargin = 0.05

// relationNearDist is the maximal separation for Near.
const relationNearDist = 0.2

// ValidRelation reports whether the name is a supported relation.
func ValidRelation(r Relation) bool {
	switch r {
	case LeftOf, RightOf, Near:
		return true
	}
	return false
}

// PositionOf returns the horizontal centre (in [0, 1]) of a tracked
// instance on a frame. It is a pure function of (video, track, frame):
// a per-instance anchor plus two slow incommensurate sinusoids.
func PositionOf(videoID string, trackID, frame int) float64 {
	return positionAt(hashString(videoID), int64(trackID), frame)
}

// positionAt is PositionOf with the video ID already hashed.
func positionAt(hv uint64, trackID int64, frame int) float64 {
	h := keyed(hv, uint64(trackID))
	anchor := unitFloat(h)
	phase1 := 2 * math.Pi * unitFloat(mix64(h^0x1234))
	phase2 := 2 * math.Pi * unitFloat(mix64(h^0x5678))
	t := float64(frame)
	drift := 0.18*math.Sin(t/180+phase1) + 0.09*math.Sin(t/411+phase2)
	x := anchor + drift
	// Reflect into [0, 1].
	x = math.Mod(math.Abs(x), 2)
	if x > 1 {
		x = 2 - x
	}
	return x
}

// holds evaluates the geometric condition for a pair of positions.
func (r Relation) holds(xa, xb float64) bool {
	switch r {
	case LeftOf:
		return xa <= xb-relationMargin
	case RightOf:
		return xa >= xb+relationMargin
	case Near:
		return math.Abs(xa-xb) <= relationNearDist
	}
	return false
}

// holdsAmong reports whether some instance of ia and a different instance
// of ib satisfy the relation on the frame; hv is the video ID's hash.
func (r Relation) holdsAmong(hv uint64, frame int, ia, ib []int64) bool {
	for _, ta := range ia {
		xa := positionAt(hv, ta, frame)
		for _, tb := range ib {
			if ta != tb && r.holds(xa, positionAt(hv, tb, frame)) {
				return true
			}
		}
	}
	return false
}

// RelationPositive reports the detector-derived indicator of the relation
// on a frame: some detected instance of type a and some detected instance
// of type b satisfy it. Hallucinated detections (negative IDs) participate,
// as they would in a real pipeline. It is the one-frame RelationPositives.
func RelationPositive(det ObjectDetector, v TruthVideo, rel Relation, a, b string, frame int) bool {
	var evA, evB Events
	var hit [1]bool
	return RelationPositives(det, v, rel, a, b, video.Interval{Start: frame, End: frame}, &evA, &evB, hit[:]) > 0
}

// RelationPositives marks dst[i] when the relation holds on frame
// frames.Start+i, as RelationPositive decides it, and returns how many
// frames it marked. Each operand type's detections over the whole run come
// from one events batch; evA and evB are the caller's scratch.
func RelationPositives(det ObjectDetector, v TruthVideo, rel Relation, a, b string, frames video.Interval, evA, evB *Events, dst []bool) int {
	evA.Reset()
	AppendFrameEvents(det, v, a, frames, evA)
	if evA.Len() == 0 {
		return 0
	}
	evB.Reset()
	AppendFrameEvents(det, v, b, frames, evB)
	hv := hashString(v.ID())
	count := 0
	// Both batches are in frame order: walk them frame by frame.
	for i, j := 0, 0; i < evA.Len(); {
		frame := evA.Units[i]
		iEnd := i + 1
		for iEnd < evA.Len() && evA.Units[iEnd] == frame {
			iEnd++
		}
		for j < evB.Len() && evB.Units[j] < frame {
			j++
		}
		jEnd := j
		for jEnd < evB.Len() && evB.Units[jEnd] == frame {
			jEnd++
		}
		if rel.holdsAmong(hv, int(frame), evA.Tracks[i:iEnd], evB.Tracks[j:jEnd]) {
			dst[int(frame)-frames.Start] = true
			count++
		}
		i, j = iEnd, jEnd
	}
	return count
}

// TrueRelationAt reports the ground-truth indicator of the relation on a
// frame, from the true instances and the same trajectories.
func TrueRelationAt(v TruthVideo, rel Relation, a, b string, frame int) bool {
	at := video.Interval{Start: frame, End: frame}
	ids := func(typ string) []int64 {
		var out []int64
		for _, t := range v.AppendTracks(typ, at, nil) {
			out = append(out, int64(t.TrackID))
		}
		return out
	}
	ia := ids(a)
	return len(ia) > 0 && rel.holdsAmong(hashString(v.ID()), frame, ia, ids(b))
}
