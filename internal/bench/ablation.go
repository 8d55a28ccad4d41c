package bench

import (
	"fmt"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/video"
)

// AblationPredicateOrder quantifies the effect of Algorithm 2's predicate
// evaluation order (the paper defers this to future work, footnote 5):
// evaluating the action first versus the objects first changes how much
// model inference the short-circuit saves, depending on relative predicate
// selectivity. Both arms pin their order (DeclaredOrder/ActionFirst) so the
// comparison isolates static orders; AblationPlanner covers the adaptive
// planner against them.
func AblationPredicateOrder(w *Workspace) ([]Table, error) {
	stream, spec, err := w.QueryStream(video.DefaultGeometry, "q2")
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Ablation: predicate evaluation order (q2, SVAQD)",
		Header: []string{"order", "object frames inferred", "action shots inferred", "F1"},
	}
	for _, actionFirst := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.ActionFirst = actionFirst
		cfg.DeclaredOrder = !actionFirst
		var meter detect.Meter
		cfg.Meter = &meter
		eng, err := core.NewSVAQD(w.Models(), cfg)
		if err != nil {
			return nil, err
		}
		c, _, err := OnlineEval(eng, stream, spec)
		if err != nil {
			return nil, err
		}
		label := "objects first (paper default)"
		if actionFirst {
			label = "action first"
		}
		t.AddRow(label, fmt.Sprint(meter.ObjectFrames()), fmt.Sprint(meter.ActionShots()), f2(c.F1()))
	}
	return []Table{t}, nil
}

// AblationShortCircuit quantifies the inference saved by Algorithm 2's
// short-circuiting against the fully evaluated variant.
func AblationShortCircuit(w *Workspace) ([]Table, error) {
	stream, spec, err := w.QueryStream(video.DefaultGeometry, "q1")
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Ablation: predicate short-circuiting (q1, SVAQD)",
		Header: []string{"variant", "object frames", "action shots", "inference cost", "F1"},
	}
	models := w.Models()
	for _, noSC := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.NoShortCircuit = noSC
		var meter detect.Meter
		cfg.Meter = &meter
		eng, err := core.NewSVAQD(models, cfg)
		if err != nil {
			return nil, err
		}
		c, _, err := OnlineEval(eng, stream, spec)
		if err != nil {
			return nil, err
		}
		label := "short-circuit (default)"
		if noSC {
			label = "evaluate all predicates"
		}
		t.AddRow(label, fmt.Sprint(meter.ObjectFrames()), fmt.Sprint(meter.ActionShots()),
			meter.Cost(models).String(), f2(c.F1()))
	}
	return []Table{t}, nil
}

// AblationHorizon sweeps the scan-statistics horizon L (the paper leaves it
// implicit): longer horizons demand more evidence per clip, trading recall
// at occurrence boundaries against false-alarm control.
func AblationHorizon(w *Workspace) ([]Table, error) {
	stream, spec, err := w.QueryStream(video.DefaultGeometry, "q2")
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Ablation: significance horizon L (q2, SVAQD)",
		Header: []string{"L (clips)", "F1", "sequences"},
	}
	for _, L := range []float64{5, 20, 100, 500} {
		cfg := core.DefaultConfig()
		cfg.HorizonClips = L
		eng, err := core.NewSVAQD(w.Models(), cfg)
		if err != nil {
			return nil, err
		}
		c, res, err := OnlineEval(eng, stream, spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(f1(L), f2(c.F1()), fmt.Sprint(res.Sequences.NumIntervals()))
	}
	return []Table{t}, nil
}

// Experiment is one runnable evaluation unit.
type Experiment struct {
	// ID is the table/figure identifier used on the command line.
	ID string
	// Desc summarises what the experiment reproduces.
	Desc string
	// Run executes the experiment against a workspace.
	Run func(*Workspace) ([]Table, error)
}

// Experiments lists every reproducible table and figure plus the ablations,
// in presentation order.
var Experiments = []Experiment{
	{"fig2", "F1 vs initial background probability (SVAQ vs SVAQD)", Fig2},
	{"fig3", "F1 on all twelve YouTube queries", Fig3},
	{"table3", "F1 with varying object predicates", Table3},
	{"table4", "F1 under different detection models", Table4},
	{"table5", "Detector FPR without/with SVAQD", Table5},
	{"fig4", "Number of result sequences vs clip size", Fig4},
	{"fig5", "Frame-level F1 vs clip size", Fig5},
	{"runtime", "Online runtime decomposition (§5.2)", RuntimeDecomposition},
	{"table6", "Offline algorithms on Coffee and Cigarettes", Table6},
	{"table7", "Offline algorithms on YouTube (K=5)", Table7},
	{"table8", "RVAQ speedup over Pq-Traverse on three movies", Table8},
	{"accuracy", "RVAQ ranked-result accuracy on movies (§5.3)", OfflineAccuracy},
	{"ablation-order", "Predicate evaluation order", AblationPredicateOrder},
	{"ablation-planner", "Cost-based planner vs declared vs worst-case order", AblationPlanner},
	{"ablation-shortcircuit", "Short-circuit inference savings", AblationShortCircuit},
	{"ablation-horizon", "Significance horizon sweep", AblationHorizon},
	{"drift", "Non-stationary background (surveillance peaks)", DriftExperiment},
	{"extended", "Extended queries: relations, multi-action, disjunction", ExtendedQueries},
	{"ablation-cascade", "Tiered cascade vs cheap-only vs accurate-only (cost at equal F1)", AblationCascade},
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for i := range Experiments {
		if Experiments[i].ID == id {
			return &Experiments[i]
		}
	}
	return nil
}
