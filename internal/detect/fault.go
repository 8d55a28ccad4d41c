package detect

import (
	"fmt"
	"time"
)

// Fault injection for the detection models. Real serving treats detectors as
// remote, unreliable dependencies: invocations time out, backends restart,
// individual inputs poison a model. The decorators here graft exactly that
// failure surface onto any ObjectDetector/ActionRecognizer so the engine's
// retry and skip-and-flag machinery can be exercised deterministically.
//
// Faults are pure functions of (seed, video, type, unit, attempt), like every
// other draw in this package: a transient fault on attempt 0 may clear on
// attempt 1, a permanent fault fails every attempt, and repeated runs observe
// identical fault patterns — which is what makes degraded results testable.

// DetectionError reports a failed model invocation.
type DetectionError struct {
	// Model is the failing model's name.
	Model string
	// Kind is "object" or "action".
	Kind string
	// Type is the queried object/action type; Unit the frame or shot.
	Type string
	Unit int
	// Transient marks faults that may clear on retry.
	Transient bool
}

func (e *DetectionError) Error() string {
	mode := "permanent"
	if e.Transient {
		mode = "transient"
	}
	return fmt.Sprintf("detect: %s failure of %s on %s type %q unit %d", mode, e.Model, e.Kind, e.Type, e.Unit)
}

// IsTransient reports whether err is worth retrying. Injected faults say so
// explicitly; unknown errors are treated as transient (the conservative
// choice for a remote dependency).
func IsTransient(err error) bool {
	if de, ok := asDetectionError(err); ok {
		return de.Transient
	}
	return err != nil
}

// asDetectionError is errors.As(err, &de) for de *DetectionError without
// the heap-allocated target errors.As needs: it walks the same tree — the
// error itself, then an As method, then Unwrap() error or, depth first,
// Unwrap() []error. Only an error with an As method pays an allocation.
func asDetectionError(err error) (*DetectionError, bool) {
	for err != nil {
		if de, ok := err.(*DetectionError); ok {
			return de, true
		}
		if x, ok := err.(interface{ As(any) bool }); ok {
			var de *DetectionError
			if x.As(&de) {
				return de, true
			}
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				if de, ok := asDetectionError(e); ok {
					return de, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

// FallibleObjectDetector is the optional fault-aware interface of an object
// detector: the Attempt methods surface invocation failures and let the
// caller distinguish retries (the plain ObjectDetector methods stay
// infallible for callers that predate the failure model).
type FallibleObjectDetector interface {
	ObjectDetector
	FrameScoreAttempt(v TruthVideo, typ string, frame, attempt int) (float64, error)
	FrameDetectionsAttempt(v TruthVideo, typ string, frame, attempt int) ([]Detection, error)
}

// FallibleActionRecognizer is the fault-aware interface of an action
// recogniser.
type FallibleActionRecognizer interface {
	ActionRecognizer
	ShotScoreAttempt(v TruthVideo, act string, shot, attempt int) (float64, error)
}

// FaultConfig parameterises injected faults.
type FaultConfig struct {
	// TransientRate is the per-attempt probability of a transient failure;
	// independent across attempts, so retries absorb it.
	TransientRate float64
	// PermanentRate is the per-unit probability that every attempt on the
	// unit fails (a poisoned input or a dead shard).
	PermanentRate float64
	// SpikeRate and SpikeDelay inject latency spikes: with probability
	// SpikeRate an invocation sleeps SpikeDelay before answering.
	SpikeRate  float64
	SpikeDelay time.Duration
	// Seed makes the fault pattern deterministic; different seeds draw
	// independent fault realisations.
	Seed int64
}

// Validate reports whether the rates are usable probabilities.
func (c FaultConfig) Validate() error {
	for _, p := range []float64{c.TransientRate, c.PermanentRate, c.SpikeRate} {
		if p < 0 || p > 1 {
			return fmt.Errorf("detect: fault rate %v out of [0,1]", p)
		}
	}
	return nil
}

// faultCore implements the fault draws shared by both decorators.
type faultCore struct {
	cfg  FaultConfig
	seed uint64
}

func newFaultCore(cfg FaultConfig, kind string) faultCore {
	return faultCore{cfg: cfg, seed: keyed(uint64(cfg.Seed), hashString("fault/"+kind))}
}

// fault decides the outcome of one attempt: a latency spike (slept here) and
// possibly an error. The permanent draw depends only on the unit; the
// transient draw is independent per attempt.
func (c faultCore) fault(model, kind string, v TruthVideo, typ string, unit, attempt int) error {
	h := keyed(c.seed, hashString(v.ID()), hashString(typ), uint64(unit))
	if c.cfg.SpikeRate > 0 && c.cfg.SpikeDelay > 0 &&
		unitFloat(keyed(h, uint64(attempt), 0x51a7e)) < c.cfg.SpikeRate {
		time.Sleep(c.cfg.SpikeDelay)
	}
	if c.cfg.PermanentRate > 0 && unitFloat(mix64(h^0xdead)) < c.cfg.PermanentRate {
		return &DetectionError{Model: model, Kind: kind, Type: typ, Unit: unit, Transient: false}
	}
	if c.cfg.TransientRate > 0 && unitFloat(keyed(h, uint64(attempt), 0xf1a9)) < c.cfg.TransientRate {
		return &DetectionError{Model: model, Kind: kind, Type: typ, Unit: unit, Transient: true}
	}
	return nil
}

// FaultyObjectDetector decorates an ObjectDetector with injected faults.
// The plain ObjectDetector methods delegate untouched; only fault-aware
// callers (the Attempt methods) observe failures.
type FaultyObjectDetector struct {
	inner ObjectDetector
	core  faultCore
}

// InjectObjectFaults wraps d with deterministic fault injection.
func InjectObjectFaults(d ObjectDetector, cfg FaultConfig) *FaultyObjectDetector {
	return &FaultyObjectDetector{inner: d, core: newFaultCore(cfg, "object")}
}

// Name implements ObjectDetector.
func (d *FaultyObjectDetector) Name() string { return d.inner.Name() }

// UnitCost implements ObjectDetector.
func (d *FaultyObjectDetector) UnitCost() time.Duration { return d.inner.UnitCost() }

// FrameScore implements ObjectDetector, delegating without faults.
func (d *FaultyObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return d.inner.FrameScore(v, typ, frame)
}

// FrameDetections implements ObjectDetector, delegating without faults.
func (d *FaultyObjectDetector) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	return d.inner.FrameDetections(v, typ, frame)
}

// FrameScoreAttempt implements FallibleObjectDetector.
func (d *FaultyObjectDetector) FrameScoreAttempt(v TruthVideo, typ string, frame, attempt int) (float64, error) {
	if err := d.core.fault(d.Name(), "object", v, typ, frame, attempt); err != nil {
		return 0, err
	}
	return d.inner.FrameScore(v, typ, frame), nil
}

// FrameDetectionsAttempt implements FallibleObjectDetector.
func (d *FaultyObjectDetector) FrameDetectionsAttempt(v TruthVideo, typ string, frame, attempt int) ([]Detection, error) {
	if err := d.core.fault(d.Name(), "object", v, typ, frame, attempt); err != nil {
		return nil, err
	}
	return d.inner.FrameDetections(v, typ, frame), nil
}

// FaultyActionRecognizer decorates an ActionRecognizer with injected faults.
type FaultyActionRecognizer struct {
	inner ActionRecognizer
	core  faultCore
}

// InjectActionFaults wraps r with deterministic fault injection.
func InjectActionFaults(r ActionRecognizer, cfg FaultConfig) *FaultyActionRecognizer {
	return &FaultyActionRecognizer{inner: r, core: newFaultCore(cfg, "action")}
}

// Name implements ActionRecognizer.
func (r *FaultyActionRecognizer) Name() string { return r.inner.Name() }

// UnitCost implements ActionRecognizer.
func (r *FaultyActionRecognizer) UnitCost() time.Duration { return r.inner.UnitCost() }

// ShotScore implements ActionRecognizer, delegating without faults.
func (r *FaultyActionRecognizer) ShotScore(v TruthVideo, act string, shot int) float64 {
	return r.inner.ShotScore(v, act, shot)
}

// ShotScoreAttempt implements FallibleActionRecognizer.
func (r *FaultyActionRecognizer) ShotScoreAttempt(v TruthVideo, act string, shot, attempt int) (float64, error) {
	if err := r.core.fault(r.Name(), "action", v, act, shot, attempt); err != nil {
		return 0, err
	}
	return r.inner.ShotScore(v, act, shot), nil
}
