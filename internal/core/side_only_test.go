package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/obs"
)

// sides replaces every score of a Score call at tau > 0 with its side of
// tau: 1 at or above it, 0 below. A call at tau ≤ 0 asked for full scores
// and keeps them.
func sides(dst []float64, tau float64) {
	if tau <= 0 {
		return
	}
	for i, s := range dst {
		dst[i] = 0
		if s >= tau {
			dst[i] = 1
		}
	}
}

// sideOnlyObjects is an object detector that returns nothing but the side of
// the threshold it is asked to score at; its events and FrameScore are the
// wrapped detector's.
type sideOnlyObjects struct{ detect.ObjectDetector }

func (d sideOnlyObjects) Score(v detect.TruthVideo, typ string, start int, dst []float64, tau float64, need detect.Need, attempt int) (int, error) {
	n, err := d.ObjectDetector.Score(v, typ, start, dst, tau, need, attempt)
	sides(dst[:n], tau)
	return n, err
}

// sideOnlyActions is sideOnlyObjects for an action recogniser.
type sideOnlyActions struct{ detect.ActionRecognizer }

func (r sideOnlyActions) Score(v detect.TruthVideo, act string, start int, dst []float64, tau float64, need detect.Need, attempt int) (int, error) {
	n, err := r.ActionRecognizer.Score(v, act, start, dst, tau, need, attempt)
	sides(dst[:n], tau)
	return n, err
}

// observedRun is everything a run exposes: its Result (plan report
// included), its spans' names and attributes in snapshot order (times
// excluded) and the meter's exposition.
type observedRun struct {
	res   *Result
	spans []string
	meter string
}

// TestEngineReadsOnlyTheSide is the audit that the online engine consumes
// nothing of a one-tier score but its side of the threshold, as a test: over
// both engines, a basic conjunction, an OR-group and a multi-action
// statement, declared and planned, models that return only 1 or 0 at the
// threshold they are asked for must leave the Result, the plan report, every
// span attribute and every meter count exactly where the full scores put
// them. It is what fails if anything online reads a score again.
func TestEngineReadsOnlyTheSide(t *testing.T) {
	v := extTestVideoFrames(t, 23, 15_000)
	statements := []struct {
		name string
		run  func(*Engine, context.Context) (*Result, error)
	}{
		{"basic", func(e *Engine, ctx context.Context) (*Result, error) {
			return e.Run(ctx, v, Query{Objects: []string{"car", "human"}, Action: "jumping"})
		}},
		{"or-group", func(e *Engine, ctx context.Context) (*Result, error) {
			return e.RunCNF(ctx, v, CNF{Clauses: []Clause{
				{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
				{Atoms: []Atom{ObjectAtom("human"), ObjectAtom("dog")}},
			}})
		}},
		{"multi-action", func(e *Engine, ctx context.Context) (*Result, error) {
			return e.RunCNF(ctx, v, CNF{Clauses: []Clause{
				{Atoms: []Atom{ActionAtom("jumping")}},
				{Atoms: []Atom{ActionAtom("dancing")}},
				{Atoms: []Atom{ObjectAtom("human")}},
			}})
		}},
	}
	observe := func(mk func(detect.Models, Config) (*Engine, error), models detect.Models, declared bool, run func(*Engine, context.Context) (*Result, error)) observedRun {
		cfg := DefaultConfig()
		cfg.DeclaredOrder = declared
		cfg.Meter = new(detect.Meter)
		e, err := mk(models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTrace("side-only")
		res, err := run(e, obs.WithTrace(context.Background(), trace))
		if err != nil {
			t.Fatal(err)
		}
		var o observedRun
		o.res = res
		for _, sp := range trace.Snapshot().Spans {
			o.spans = append(o.spans, fmt.Sprintf("%s %v", sp.Name, sp.Attrs))
		}
		reg := obs.NewRegistry()
		cfg.Meter.Register(reg)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		o.meter = buf.String()
		return o
	}
	positives := 0
	for _, s := range statements {
		for _, mk := range goldenEngines {
			for _, declared := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/declared=%v", s.name, mk.name, declared)
				full := observe(mk.mk, noisyModels(7), declared, s.run)
				m := noisyModels(7)
				m.Objects, m.Actions = sideOnlyObjects{m.Objects}, sideOnlyActions{m.Actions}
				side := observe(mk.mk, m, declared, s.run)
				if !reflect.DeepEqual(side.res, full.res) {
					t.Errorf("%s: result\n side %s\n full %s", name, snapshotResult(side.res), snapshotResult(full.res))
				}
				if !reflect.DeepEqual(side.spans, full.spans) {
					t.Errorf("%s: spans\n side %v\n full %v", name, side.spans, full.spans)
				}
				if side.meter != full.meter {
					t.Errorf("%s: meter\n side %s\n full %s", name, side.meter, full.meter)
				}
				positives += full.res.Sequences.TotalLen()
			}
		}
	}
	if positives == 0 {
		t.Fatal("no statement found a sequence: the audit would compare empty answers")
	}
}
