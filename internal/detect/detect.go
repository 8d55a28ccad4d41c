// Package detect defines the detection-model contract the query engine is
// built on, plus simulated models with calibrated noise profiles.
//
// The paper's engine treats object detectors, action recognisers and
// trackers as black boxes that emit scores per frame (objects) or per shot
// (actions). The simulated models reproduce that against the scripted ground
// truth of a synthetic video: a present type is detected at the profile's
// true-positive rate with a high score; an absent one is hallucinated both as
// independent per-unit noise and in bursts (a look-alike object in the
// scene), the failure mode that motivates the paper's scan statistics. All
// draws are pure functions of (video, model, type, unit), so every pass over
// a video observes identical detections.
package detect

import (
	"time"

	"svqact/internal/video"
)

// TruthVideo is the ground-truth view simulated models sample against.
// synth.Video implements it.
type TruthVideo interface {
	ID() string
	NumFrames() int
	Geometry() video.Geometry
	ObjectTypes() []string
	ActionTypes() []string
	// AppendTracks appends to dst the instances of the object type visible
	// on any frame of frames, in appearance order, with track IDs in the
	// video's ID space and Frames clipped to the instance's part of the
	// video. The type is present on a frame iff some track contains it.
	AppendTracks(typ string, frames video.Interval, dst []video.Track) []video.Track
	// ActionAt reports whether the action occurs during the shot.
	ActionAt(act string, shot int) bool
}

// Model is the one contract every detection model implements — simulators,
// distilled proxies, the tracker, fault decorators and cascades alike: score
// a batch of occurrence units (frames for objects, shots for actions) at one
// invocation attempt and threshold. Retrying is the caller's.
type Model interface {
	// Name identifies the model (for reports and deterministic seeding).
	Name() string
	// UnitCost is the simulated inference latency for one unit.
	UnitCost() time.Duration
	// Score fills dst[i] with the label's score on unit start+i — an object
	// type's best detection (the paper's maxS) or an action's class score,
	// 0 when nothing is detected. It stops at the first unit whose
	// invocation fails and returns how many units came before it with that
	// unit's error. An infallible model always returns nil.
	//
	// tau ≤ 0 asks for the full scores. At tau > 0 only the side of tau is
	// promised: dst[i] ≥ tau exactly when the full score is, and dst[i] is
	// that score when the model drew it, any value on the same side when
	// it decided the side without drawing.
	//
	// need is the decision the scores serve: the model stops at the first
	// unit before which need is decided and returns how many units came
	// before it with no error, also when that unit would have failed. The
	// zero Need decides nothing, so every unit is scored.
	Score(v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (scored int, err error)
}

// Need is the decision a batch of scores serves — whether Count of its units
// score at least tau: true once Count of them have, false once they no
// longer can with the units the batch has left plus Beyond more after it.
// A Count ≤ 0 decides nothing.
type Need struct {
	Count, Beyond int
}

// decided reports whether the decision is fixed once pos of the batch's
// scores so far reach tau and left of its units remain.
func (n Need) decided(pos, left int) bool {
	return n.Count > 0 && (pos >= n.Count || pos+left+n.Beyond < n.Count)
}

// after is n for a batch cut short by extra units, which still count as
// left.
func (n Need) after(extra int) Need {
	n.Beyond += extra
	return n
}

// stop is where a batch given n ends that scored the first k of its scores
// into dst, the unit after them failing with err (nil: none did): at the
// first unit before which n is decided, with no error, else at k with err.
func (n Need) stop(dst []float64, k int, tau float64, err error) (int, error) {
	if n.Count <= 0 {
		return k, err
	}
	pos := 0
	for i, s := range dst[:k] {
		if n.decided(pos, len(dst)-i) {
			return i, nil
		}
		if s >= tau {
			pos++
		}
	}
	if err != nil && n.decided(pos, len(dst)-k) {
		return k, nil
	}
	return k, err
}

// ObjectDetector is a Model over frames that also reports its individual
// detections.
type ObjectDetector interface {
	Model
	// Events appends every detection of the type on frames to ev, in frame
	// order and, within a frame, in track order, stopping at the first
	// frame whose invocation fails, as Score does.
	Events(v TruthVideo, typ string, frames video.Interval, ev *Events, attempt int) (scored int, err error)
	// FrameScore is the one-frame full Score at attempt 0, 0 when it fails.
	FrameScore(v TruthVideo, typ string, frame int) float64
}

// ActionRecognizer is a Model over shots.
type ActionRecognizer = Model

// unitScore is the one-unit full Score at attempt 0, 0 when it fails.
func unitScore(m Model, v TruthVideo, label string, unit int) float64 {
	var s [1]float64
	if _, err := m.Score(v, label, unit, s[:], 0, Need{}, 0); err != nil {
		return 0
	}
	return s[0]
}

// Models bundles the detector pair a query runs with, plus the score
// thresholds applied to their outputs (the paper's T_obj and T_act).
type Models struct {
	Objects      ObjectDetector
	Actions      ActionRecognizer
	ObjThreshold float64
	ActThreshold float64
}

// DefaultThreshold is the score threshold used throughout the evaluation,
// matching the 0.5 convention of the detection literature.
const DefaultThreshold = 0.5

// NewModels pairs an object detector and action recogniser with the default
// thresholds.
func NewModels(o ObjectDetector, a ActionRecognizer) Models {
	return Models{Objects: o, Actions: a, ObjThreshold: DefaultThreshold, ActThreshold: DefaultThreshold}
}
