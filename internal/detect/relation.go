package detect

import (
	"context"
	"math"
	"time"

	"svqact/internal/video"
)

// Spatial relationships between objects (paper footnote 2): a relationship
// predicate is a binary per-frame output derived from the object detections
// — it holds on a frame when some detected instance pair satisfies the
// geometric condition. The synthetic world has no pixels, so every tracked
// instance follows a smooth, deterministic horizontal trajectory derived
// from its identity; ground truth and detector read the same trajectory, and
// the detector's errors are missed or hallucinated instances.

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

// relationMargin is the minimal horizontal separation for LeftOf/RightOf
// and relationNearDist the maximal one for Near, in normalised image
// coordinates [0, 1].
const relationMargin, relationNearDist = 0.05, 0.2

// ValidRelation reports whether the name is a supported relation.
func ValidRelation(r Relation) bool { return r == LeftOf || r == RightOf || r == Near }

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
// as they would in a real pipeline. It is the one-frame RelationPositives
// without retry; a failed invocation reads as false.
func RelationPositive(det ObjectDetector, v TruthVideo, rel Relation, a, b string, frame int) bool {
	var acc Account
	acc.Reset(1)
	n, _ := RelationPositives(context.Background(), det, v, rel, a, b, video.Interval{Start: frame, End: frame},
		new(Events), new(Events), nil, RetryConfig{}, &acc)
	return n > 0
}

// RelationPositives counts the frames on which the relation holds and, when
// dst is not nil, marks dst[i] for frame frames.Start+i. Each operand's
// detections come from one ReadEvents call, so the relation observes det's
// faults and retries them; a frame that still fails fails the run, counting
// and marking nothing. evA and evB are the caller's scratch. One object
// inference covers every type on a frame, so the operand reads share each
// frame's first attempt: acc is charged one attempt per frame reached plus
// every retry.
func RelationPositives(ctx context.Context, det ObjectDetector, v TruthVideo, rel Relation, a, b string, frames video.Interval, evA, evB *Events, dst []bool, retry RetryConfig, acc *Account) (int, error) {
	evA.Reset()
	if _, err := ReadEvents(ctx, det, v, a, frames, evA, retry, acc); err != nil || evA.Len() == 0 {
		return 0, err
	}
	evB.Reset()
	reached := acc.Units[0]
	_, err := ReadEvents(ctx, det, v, b, frames, evB, retry, acc)
	shared := acc.Units[0] - reached // b's first attempts were a's
	acc.Units[0] -= shared
	acc.Attempts -= shared
	acc.Cost -= time.Duration(shared) * det.UnitCost()
	if err != nil {
		return 0, err
	}
	hv, count := hashString(v.ID()), 0
	// Both batches are in frame order: walk them frame by frame.
	for i, j := 0, 0; i < evA.Len(); {
		frame, i0 := evA.Units[i], i
		for ; i < evA.Len() && evA.Units[i] == frame; i++ {
		}
		for ; j < evB.Len() && evB.Units[j] < frame; j++ {
		}
		j0 := j
		for ; j < evB.Len() && evB.Units[j] == frame; j++ {
		}
		if rel.holdsAmong(hv, int(frame), evA.Tracks[i0:i], evB.Tracks[j0:j]) {
			if dst != nil {
				dst[int(frame)-frames.Start] = true
			}
			count++
		}
	}
	return count, nil
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
