package core

import (
	"context"
	"fmt"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// EvaluateTypes runs the engine's per-clip indicator machinery over each
// given object and action type independently — the evaluation mode of the
// offline ingestion phase (paper §4.2), which materialises one set of
// "individual sequences" (maximal runs of positive clips) per type. It is
// the engine's clip loop (Run.Step) over a query with every type as its own
// clause, every clip sampled — so no conjunction or short-circuiting applies,
// every type is evaluated on every clip, and in Dynamic mode every clip
// feeds the background estimators (subject to the robust quantile gate) —
// and no inference budget. The planner's order is pinned; it still prices
// the tier decision of cascaded models.
//
// The returned maps give the positive-clip interval set per object type and
// per action type.
//
// The context is checked between clips: ingestion of a long video aborts
// promptly (with an *InterruptedError) when the caller goes away. Clips
// whose detector invocations fail after retries are flagged per predicate
// (indicator negative); past the failure budget the evaluation aborts with a
// *DegradedError.
func (e *Engine) EvaluateTypes(ctx context.Context, v detect.TruthVideo, objects, actions []string) (map[string]video.IntervalSet, map[string]video.IntervalSet, error) {
	r, err := e.bind(ctx, v, len(objects)+len(actions))
	if err != nil {
		return nil, nil, err
	}
	// The returned maps are materialised fresh by video.FromIndicator, so
	// the scratch can go back to the pool on every exit path.
	defer r.release()
	r.everyClip, r.budget = true, 0
	for _, o := range objects {
		if fresh, err := r.addClause(ObjectAtom(o)); err != nil {
			return nil, nil, err
		} else if o == "" || !fresh {
			return nil, nil, fmt.Errorf("core: empty or duplicate object type %q", o)
		}
	}
	for _, a := range actions {
		if fresh, err := r.addClause(ActionAtom(a)); err != nil {
			return nil, nil, err
		} else if a == "" || !fresh {
			return nil, nil, fmt.Errorf("core: empty or duplicate action type %q", a)
		}
	}
	r.start(nil)
	for r.Step() {
	}
	if r.err != nil {
		return nil, nil, r.err
	}

	objSeqs := make(map[string]video.IntervalSet, len(objects))
	actSeqs := make(map[string]video.IntervalSet, len(actions))
	for _, ps := range r.preds {
		set := video.FromIndicator(ps.clipInd)
		if ps.atom.Kind == ObjectPredicate {
			objSeqs[ps.name] = set
		} else {
			actSeqs[ps.name] = set
		}
	}
	return objSeqs, actSeqs, nil
}
