// Package detect defines the detection-model abstractions the query engine
// is built on, plus simulated implementations with calibrated noise
// profiles.
//
// The paper's engine treats object detectors, action recognisers and
// trackers as black boxes that emit scores per frame (objects) or per shot
// (actions). The simulated models here reproduce that contract against the
// scripted ground truth of a synthetic video: when a type is truly present
// the model detects it with the profile's true-positive rate and a high
// score; when absent it hallucinates detections both as independent per-unit
// noise and as occasional bursts (a look-alike object in the scene), the
// failure mode that makes thresholding alone insufficient and motivates the
// paper's scan-statistics layer.
//
// All draws are pure functions of (video, model, type, unit), so repeated
// evaluation — online streaming, offline ingestion, re-runs — observes
// identical detections.
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
	// video's ID space and Frames clipped to the part of the video the
	// instance belongs to. The type is present on a frame exactly when some
	// appended track's Frames contain it; a batch of units reads its
	// instances and presence from one such window.
	AppendTracks(typ string, frames video.Interval, dst []video.Track) []video.Track
	// ActionAt reports whether the action occurs during the shot.
	ActionAt(act string, shot int) bool
}

// Detection is one detected object instance on a frame. Ground-truth
// instances carry their tracker ID; hallucinated detections carry negative
// IDs so downstream aggregation still sees consistent per-instance identity.
type Detection struct {
	TrackID int
	Score   float64
}

// ObjectDetector scores object types on frames.
type ObjectDetector interface {
	// Name identifies the model (for reports and deterministic seeding).
	Name() string
	// FrameScore returns the maximum detection score for the type on the
	// frame, or 0 when nothing is detected — the paper's maxS.
	FrameScore(v TruthVideo, typ string, frame int) float64
	// FrameDetections returns every detection of the type on the frame.
	FrameDetections(v TruthVideo, typ string, frame int) []Detection
	// UnitCost is the simulated inference latency for one frame.
	UnitCost() time.Duration
}

// ActionRecognizer scores action types on shots.
type ActionRecognizer interface {
	Name() string
	// ShotScore returns the classification score of the action on the shot,
	// or 0 when the action is not predicted.
	ShotScore(v TruthVideo, act string, shot int) float64
	UnitCost() time.Duration
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

// ObjectPositive reports the thresholded indicator 1_{o}(v) for the type on
// the frame.
func (m Models) ObjectPositive(v TruthVideo, typ string, frame int) bool {
	return m.Objects.FrameScore(v, typ, frame) >= m.ObjThreshold
}

// ActionPositive reports the thresholded indicator 1_{a}(s) for the action
// on the shot.
func (m Models) ActionPositive(v TruthVideo, act string, shot int) bool {
	return m.Actions.ShotScore(v, act, shot) >= m.ActThreshold
}

// FrameDetectionsAttempt invokes d for one attempt, surfacing invocation
// failures when the detector is fallible.
func FrameDetectionsAttempt(d ObjectDetector, v TruthVideo, typ string, frame, attempt int) ([]Detection, error) {
	if fd, ok := d.(FallibleObjectDetector); ok {
		return fd.FrameDetectionsAttempt(v, typ, frame, attempt)
	}
	return d.FrameDetections(v, typ, frame), nil
}
