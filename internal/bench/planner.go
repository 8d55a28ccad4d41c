package bench

import (
	"context"
	"fmt"
	"strings"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/metrics"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// plannerArm is one pinned-or-adaptive configuration of the planner
// ablation.
type plannerArm struct {
	label string
	q     core.Query
	mut   func(*core.Config)
}

// AblationPlanner quantifies the cost-based predicate planner on an
// adversarial declared order: q2 declares its two common objects first and
// the rare (most selective) — and, per unit, far cheaper — action predicate
// last, so pinned declared-order evaluation pays the expensive object
// detectors on clips the action alone would have rejected. Three arms run
// the identical query:
//
//   - declared: pinned to the adversarial declared order,
//   - planned: the adaptive cheapest-expected-cost-to-reject order,
//   - worst-case: pinned to the reverse of the order the planner converged
//     to (the statically worst realisable order).
//
// Ordering is provably result-invariant (see internal/core's
// order-invariance property tests), so every arm reports the same F1 and
// sequences; only the inference cost moves.
func AblationPlanner(w *Workspace) ([]Table, error) {
	stream, spec, err := w.QueryStream(video.DefaultGeometry, "q2")
	if err != nil {
		return nil, err
	}
	models := w.Models()
	truth := stream.TruthClips(spec, 0)

	run := func(a plannerArm) (*core.Result, *detect.Meter, error) {
		meter := new(detect.Meter)
		cfg := core.DefaultConfig()
		a.mut(&cfg)
		cfg.Meter = meter
		eng, err := core.NewSVAQD(models, cfg)
		if err != nil {
			return nil, nil, err
		}
		res, err := eng.Run(context.Background(), stream, a.q)
		if err != nil {
			return nil, nil, err
		}
		return res, meter, nil
	}

	declared := plannerArm{
		label: "declared (adversarial: selective action last)",
		q:     core.Query{Objects: spec.Objects, Action: spec.Action},
		mut:   func(c *core.Config) { c.DeclaredOrder = true },
	}
	planned := plannerArm{
		label: "planned (cheapest rejection first)",
		q:     core.Query{Objects: spec.Objects, Action: spec.Action},
		mut:   func(c *core.Config) {},
	}

	// The worst-case arm pins the reverse of whatever order the planner
	// converged to, so run the planned arm first to learn that order.
	planRes, planMeter, err := run(planned)
	if err != nil {
		return nil, err
	}
	worst, err := reversedArm(planRes, spec)
	if err != nil {
		return nil, err
	}

	t := Table{
		Title: "Ablation: cost-based predicate planner (q2, SVAQD)",
		Header: []string{"variant", "evaluation order", "inference cost",
			"object frames", "action shots", "F1", "sequences"},
	}
	var declaredCost, plannedCost, worstCost float64
	for _, a := range []plannerArm{declared, planned, worst} {
		res, meter := planRes, planMeter // the planned arm already ran
		if a.label != planned.label {
			if res, meter, err = run(a); err != nil {
				return nil, err
			}
		}
		cost := meter.Cost(models)
		switch a.label {
		case declared.label:
			declaredCost = cost.Seconds()
		case planned.label:
			plannedCost = cost.Seconds()
		default:
			worstCost = cost.Seconds()
		}
		c := metrics.MatchSequences(res.Sequences, truth, metrics.DefaultIoU)
		order := "-"
		if res.Plan != nil {
			order = strings.Join(res.Plan.Order, " -> ")
		}
		t.AddRow(a.label, order, cost.String(),
			fmt.Sprint(meter.ObjectFrames()), fmt.Sprint(meter.ActionShots()),
			f2(c.F1()), fmt.Sprint(res.Sequences.NumIntervals()))
	}

	s := Table{
		Title:  "Planner speedup (simulated inference cost ratios)",
		Header: []string{"comparison", "speedup"},
	}
	s.AddRow("planned vs declared (adversarial)", f2(declaredCost/plannedCost))
	s.AddRow("planned vs worst-case", f2(worstCost/plannedCost))
	return []Table{t, s}, nil
}

// reversedArm realises the reverse of a converged plan order as a pinned
// configuration: action first (ActionFirst) when the reversed order leads
// with the action, declared order (DeclaredOrder) with the objects laid out
// to match otherwise.
func reversedArm(res *core.Result, spec synth.QuerySpec) (plannerArm, error) {
	out := plannerArm{label: "worst-case (reverse of planned)"}
	if res.Plan == nil {
		return out, fmt.Errorf("bench: planned run carries no plan report")
	}
	order := res.Plan.Order
	rev := make([]string, len(order))
	for i, name := range order {
		rev[len(order)-1-i] = name
	}
	isAction := func(name string) bool { return name == spec.Action }
	switch {
	case isAction(rev[len(rev)-1]):
		out.q = core.Query{Objects: rev[:len(rev)-1], Action: spec.Action}
		out.mut = func(c *core.Config) { c.DeclaredOrder = true }
	case isAction(rev[0]):
		out.q = core.Query{Objects: rev[1:], Action: spec.Action}
		out.mut = func(c *core.Config) { c.ActionFirst = true }
	default:
		return out, fmt.Errorf("bench: reversed order %v puts the action mid-sequence; not realisable as a pinned configuration", rev)
	}
	return out, nil
}
