package detect

import (
	"fmt"
	"time"

	"svqact/internal/video"
)

// Fault injection. Real serving treats detectors as remote, unreliable
// dependencies: invocations time out, backends restart, inputs poison a
// model. The decorators graft that failure surface onto any model so the
// retry and skip-and-flag machinery can be exercised deterministically;
// every invocation of a decorated model draws its faults. Faults are pure
// functions of (seed, video, type, unit, attempt): a transient fault may
// clear on the next attempt, a permanent one fails every attempt, and
// repeated runs observe identical fault patterns.

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

// FaultConfig parameterises injected faults.
type FaultConfig struct {
	// TransientRate is the per-attempt probability of a transient failure;
	// independent across attempts, so retries absorb it.
	TransientRate float64
	// PermanentRate is the per-unit probability that every attempt on the
	// unit fails (a poisoned input or a dead shard).
	PermanentRate float64
	// SpikeRate and SpikeDelay inject latency spikes: each unit an
	// invocation covers adds SpikeDelay with probability SpikeRate.
	SpikeRate  float64
	SpikeDelay time.Duration
	// Seed makes the fault pattern deterministic; different seeds draw
	// independent fault realisations.
	Seed int64
}

// Validate reports whether the rates are usable probabilities.
func (c FaultConfig) Validate() error {
	for _, p := range []float64{c.TransientRate, c.PermanentRate, c.SpikeRate} {
		if !(p >= 0 && p <= 1) { // NaN too
			return fmt.Errorf("detect: fault rate %v out of [0,1]", p)
		}
	}
	return nil
}

// faultCore implements the fault draws shared by both decorators.
type faultCore struct {
	cfg         FaultConfig
	seed        uint64
	model, kind string
}

func newFaultCore(cfg FaultConfig, model, kind string) faultCore {
	return faultCore{cfg: cfg, seed: keyed(uint64(cfg.Seed), hashString("fault/"+kind)), model: model, kind: kind}
}

// draw draws the faults of n units from start at one attempt, in unit order
// up to the first that fails, folding the video and label hashes into the
// batch's key once. It sleeps a SpikeDelay per spiking unit invoked and
// returns how many units precede the failure, how many spiked, and the
// failure. The permanent draw depends only on the unit; the transient and
// spike draws are independent per attempt.
func (c faultCore) draw(v TruthVideo, label string, start, n, attempt int) (ok, spikes int, err error) {
	key := keyed(c.seed, hashString(v.ID()), hashString(label))
	for ; ok < n; ok++ {
		unit := start + ok
		h := fold(key, uint64(unit))
		if c.cfg.SpikeRate > 0 && c.cfg.SpikeDelay > 0 && unitFloat(keyed(h, uint64(attempt), 0x51a7e)) < c.cfg.SpikeRate {
			spikes++
		}
		permanent := c.cfg.PermanentRate > 0 && unitFloat(mix64(h^0xdead)) < c.cfg.PermanentRate
		if permanent || c.cfg.TransientRate > 0 && unitFloat(keyed(h, uint64(attempt), 0xf1a9)) < c.cfg.TransientRate {
			err = &DetectionError{Model: c.model, Kind: c.kind, Type: label, Unit: unit, Transient: !permanent}
			break
		}
	}
	time.Sleep(time.Duration(spikes) * c.cfg.SpikeDelay)
	return ok, spikes, err
}

// score runs inner at tau on the batch's units that precede its first
// fault; the faulty unit and those after it still count toward need, so a
// decision fixed before the fault ends the batch without it.
func (c faultCore) score(inner Model, v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	ok, _, err := c.draw(v, label, start, len(dst), attempt)
	if k, ierr := inner.Score(v, label, start, dst[:ok], tau, need.after(len(dst)-ok), attempt); ierr != nil || k < ok || err == nil {
		return k, ierr
	}
	return need.stop(dst, ok, tau, err)
}

// FaultyObjectDetector decorates an ObjectDetector with injected faults on
// every path: scores, events and FrameScore alike.
type FaultyObjectDetector struct {
	ObjectDetector
	core faultCore
}

// InjectObjectFaults wraps d with deterministic fault injection.
func InjectObjectFaults(d ObjectDetector, cfg FaultConfig) *FaultyObjectDetector {
	return &FaultyObjectDetector{ObjectDetector: d, core: newFaultCore(cfg, d.Name(), KindObject)}
}

// Score implements Model.
func (d *FaultyObjectDetector) Score(v TruthVideo, typ string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	return d.core.score(d.ObjectDetector, v, typ, start, dst, tau, need, attempt)
}

// Events implements ObjectDetector.
func (d *FaultyObjectDetector) Events(v TruthVideo, typ string, frames video.Interval, ev *Events, attempt int) (int, error) {
	ok, _, err := d.core.draw(v, typ, frames.Start, frames.Len(), attempt)
	if k, ierr := d.ObjectDetector.Events(v, typ, video.Interval{Start: frames.Start, End: frames.Start + ok - 1}, ev, attempt); ierr != nil {
		return k, ierr
	}
	return ok, err
}

// FrameScore implements ObjectDetector.
func (d *FaultyObjectDetector) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return unitScore(d, v, typ, frame)
}

// FaultyActionRecognizer decorates an ActionRecognizer with injected faults.
type FaultyActionRecognizer struct {
	ActionRecognizer
	core faultCore
}

// InjectActionFaults wraps r with deterministic fault injection.
func InjectActionFaults(r ActionRecognizer, cfg FaultConfig) *FaultyActionRecognizer {
	return &FaultyActionRecognizer{ActionRecognizer: r, core: newFaultCore(cfg, r.Name(), KindAction)}
}

// Score implements Model.
func (r *FaultyActionRecognizer) Score(v TruthVideo, act string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	return r.core.score(r.ActionRecognizer, v, act, start, dst, tau, need, attempt)
}
