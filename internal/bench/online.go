package bench

import (
	"context"
	"fmt"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/metrics"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// fig2Queries are the two queries the paper sweeps in Figure 2:
// (a) {a=blowing leaves; o1=car} and (b) {a=washing dishes; o1=faucet}.
var fig2Queries = []struct {
	label string
	set   string
	spec  synth.QuerySpec
}{
	{"(a) a=blowing_leaves; o1=car", "q2", synth.QuerySpec{Action: "blowing_leaves", Objects: []string{"car"}}},
	{"(b) a=washing_dishes; o1=faucet", "q1", synth.QuerySpec{Action: "washing_dishes", Objects: []string{"faucet"}}},
}

// Fig2BackgroundGrid is the initial-background-probability sweep of Fig. 2.
var Fig2BackgroundGrid = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Fig2 reproduces Figure 2: the F1 of SVAQ and SVAQD as the initial
// background probability p0 sweeps six orders of magnitude. The paper's
// shape: SVAQ peaks near 1e-4 and degrades away from it; SVAQD is flat.
func Fig2(w *Workspace) ([]Table, error) {
	var out []Table
	for _, fq := range fig2Queries {
		stream, _, err := w.QueryStream(video.DefaultGeometry, fq.set)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:  "Figure 2 " + fq.label + ": F1 vs initial background probability",
			Header: []string{"p0", "SVAQ", "SVAQD"},
		}
		for _, p0 := range Fig2BackgroundGrid {
			row := []string{fmt.Sprintf("%.0e", p0)}
			for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
				cfg := core.DefaultConfig()
				cfg.P0Object, cfg.P0Action = p0, p0
				eng, err := mk(w.Models(), cfg)
				if err != nil {
					return nil, err
				}
				c, _, err := OnlineEval(eng, stream, fq.spec)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(c.F1()))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig3 reproduces Figure 3: the F1 of SVAQ (p0 = 1e-4, the peak of Fig. 2)
// and SVAQD across all twelve benchmark queries.
func Fig3(w *Workspace) ([]Table, error) {
	t := Table{
		Title:  "Figure 3: F1 of SVAQ and SVAQD on all YouTube queries",
		Header: []string{"query", "action", "objects", "SVAQ", "SVAQD"},
	}
	for _, q := range synth.YouTubeQueries() {
		stream, spec, err := w.QueryStream(video.DefaultGeometry, q.Name)
		if err != nil {
			return nil, err
		}
		row := []string{q.Name, q.Action, fmt.Sprint(q.Objects)}
		for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
			eng, err := mk(w.Models(), core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			c, _, err := OnlineEval(eng, stream, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(c.F1()))
		}
		t.AddRow(row...)
		w.logf("fig3 %s done", q.Name)
	}
	return []Table{t}, nil
}

// table3Variants lists the predicate variations of Table 3 for one action:
// each entry is the object list added to the bare action query.
var table3Variants = map[string][][]string{
	"blowing_leaves": {
		nil,
		{"person"},
		{"plant"},
		{"car"},
		{"person", "car"},
		{"person", "plant", "car"},
	},
	"washing_dishes": {
		nil,
		{"person"},
		{"oven"},
		{"faucet"},
		{"faucet", "oven"},
		{"person", "faucet", "oven"},
	},
}

// Table3 reproduces the paper's Table 3: F1 of SVAQ and SVAQD as object
// predicates are added to two base action queries. Correlated high-accuracy
// predicates (person) can improve F1; piling on predicates slightly lowers
// it.
func Table3(w *Workspace) ([]Table, error) {
	t := Table{
		Title:  "Table 3: F1 with varying object predicates",
		Header: []string{"query", "SVAQ", "SVAQD"},
	}
	for _, base := range []struct{ set, action string }{{"q2", "blowing_leaves"}, {"q1", "washing_dishes"}} {
		stream, _, err := w.QueryStream(video.DefaultGeometry, base.set)
		if err != nil {
			return nil, err
		}
		for _, objs := range table3Variants[base.action] {
			spec := synth.QuerySpec{Action: base.action, Objects: objs}
			label := "a=" + base.action
			for i, o := range objs {
				label += fmt.Sprintf(", o%d=%s", i+1, o)
			}
			row := []string{label}
			for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
				eng, err := mk(w.Models(), core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				c, _, err := OnlineEval(eng, stream, spec)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(c.F1()))
			}
			t.AddRow(row...)
		}
	}
	return []Table{t}, nil
}

// Table4 reproduces the paper's Table 4: F1 of both algorithms under
// different detection models for q: {a=blowing_leaves; o1=car}. Ideal models
// must reach F1 = 1.00.
func Table4(w *Workspace) ([]Table, error) {
	stream, _, err := w.QueryStream(video.DefaultGeometry, "q2")
	if err != nil {
		return nil, err
	}
	spec := synth.QuerySpec{Action: "blowing_leaves", Objects: []string{"car"}}
	t := Table{
		Title:  "Table 4: F1 with different detection models, q:{a=blowing_leaves; o1=car}",
		Header: []string{"models", "SVAQ", "SVAQD"},
	}
	cases := []struct {
		label    string
		obj, act detect.Profile
	}{
		{"MaskRCNN+I3D", detect.MaskRCNN, detect.I3D},
		{"YOLOv3+I3D", detect.YOLOv3, detect.I3D},
		{"Ideal Models", detect.IdealObject, detect.IdealAction},
	}
	for _, cse := range cases {
		models := w.ModelsFor(cse.obj, cse.act)
		row := []string{cse.label}
		for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
			eng, err := mk(models, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			c, _, err := OnlineEval(eng, stream, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(c.F1()))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// Table5 reproduces the paper's Table 5: the false-positive rate of the raw
// action recogniser and object detector versus the rates after SVAQD's
// statistical filtering. The paper reports 50-80% noise elimination.
func Table5(w *Workspace) ([]Table, error) {
	t := Table{
		Title:  "Table 5: detector false-positive rate without/with SVAQD",
		Header: []string{"query", "action w/o", "action w/", "object w/o", "object w/"},
	}
	for _, fq := range fig2Queries {
		stream, _, err := w.QueryStream(video.DefaultGeometry, fq.set)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.NoShortCircuit = true // complete per-predicate diagnostics
		eng, err := core.NewSVAQD(w.Models(), cfg)
		if err != nil {
			return nil, err
		}
		q := core.Query{Objects: fq.spec.Objects, Action: fq.spec.Action}
		res, err := eng.Run(context.Background(), stream, q)
		if err != nil {
			return nil, err
		}
		g := stream.Geometry()
		numClips := g.NumClips(stream.NumFrames())

		// Both rates are measured at the clip level against the same truth:
		// "without SVAQD" declares a clip positive as soon as any occurrence
		// unit inside it carries a thresholded detection (plain model output
		// merged to clips, the engine's raw clip indicator); "with SVAQD"
		// uses the engine's clip indicator.
		actStats := res.Predicate(fq.spec.Action)
		actTruthClips := unitsToClips(stream.ActionShots(fq.spec.Action), g.ShotsPerClip, numClips)
		actRaw := metrics.FalsePositiveRate(actStats.RawClips, actTruthClips, numClips)
		actFiltered := metrics.FalsePositiveRate(actStats.Clips, actTruthClips, numClips)

		obj := fq.spec.Objects[0]
		objStats := res.Predicate(obj)
		objTruthClips := unitsToClips(stream.ObjectFrames(obj), g.FramesPerClip(), numClips)
		objRaw := metrics.FalsePositiveRate(objStats.RawClips, objTruthClips, numClips)
		objFiltered := metrics.FalsePositiveRate(objStats.Clips, objTruthClips, numClips)

		t.AddRow(fq.label, f2(actRaw), f2(actFiltered), f2(objRaw), f2(objFiltered))
	}
	return []Table{t}, nil
}

// unitsToClips maps a truth set of occurrence units (shots or frames),
// perClip to a clip, to the clips it touches.
func unitsToClips(units video.IntervalSet, perClip, numClips int) video.IntervalSet {
	var ivs []video.Interval
	for _, iv := range units.Intervals() {
		ivs = append(ivs, video.Interval{Start: iv.Start / perClip, End: iv.End / perClip})
	}
	return video.NewIntervalSet(ivs...).Clamp(video.Interval{Start: 0, End: numClips - 1})
}

// ClipSizeGrid is the clip-length sweep (in shots per clip; 10-frame shots)
// of Figures 4 and 5. The grid stays within the regime where a clip holds
// "several shots" (paper §2) and a typical activity occurrence spans
// multiple clips: at two shots per clip the per-clip count statistic can no
// longer separate an event clip with one detector miss from background
// noise, and no calibration helps.
var ClipSizeGrid = []int{3, 5, 10}

// Fig4 reproduces Figure 4: the number of result sequences found as the
// clip size varies. Smaller clips fragment results into more, shorter
// sequences; larger clips merge them.
func Fig4(w *Workspace) ([]Table, error) {
	var out []Table
	for _, fq := range fig2Queries {
		t := Table{
			Title:  "Figure 4 " + fq.label + ": number of result sequences vs clip size",
			Header: []string{"clip frames", "SVAQ", "SVAQD", "truth"},
		}
		for _, spc := range ClipSizeGrid {
			g := video.Geometry{FramesPerShot: 10, ShotsPerClip: spc}
			stream, _, err := w.QueryStream(g, fq.set)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprint(g.FramesPerClip())}
			for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
				eng, err := mk(w.Models(), core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				_, res, err := OnlineEval(eng, stream, fq.spec)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprint(res.Sequences.NumIntervals()))
			}
			row = append(row, fmt.Sprint(stream.TruthClips(fq.spec, 0).NumIntervals()))
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig5 reproduces Figure 5: the frame-level F1 as the clip size varies —
// near-flat, because clip size changes how results are fragmented, not which
// frames are returned.
func Fig5(w *Workspace) ([]Table, error) {
	var out []Table
	for _, fq := range fig2Queries {
		t := Table{
			Title:  "Figure 5 " + fq.label + ": frame-level F1 vs clip size",
			Header: []string{"clip frames", "SVAQ", "SVAQD"},
		}
		for _, spc := range ClipSizeGrid {
			g := video.Geometry{FramesPerShot: 10, ShotsPerClip: spc}
			stream, _, err := w.QueryStream(g, fq.set)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprint(g.FramesPerClip())}
			for _, mk := range []func(detect.Models, core.Config) (*core.Engine, error){core.NewSVAQ, core.NewSVAQD} {
				eng, err := mk(w.Models(), core.DefaultConfig())
				if err != nil {
					return nil, err
				}
				_, res, err := OnlineEval(eng, stream, fq.spec)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(FrameLevelF1(res, stream, fq.spec)))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

// EndToEndTrainingCost is the fine-tuning cost of the strawman end-to-end
// model of §5.2 (the paper reports >60 hours of training plus query
// processing for a single composite query).
const EndToEndTrainingCost = 60 * time.Hour

// RuntimeDecomposition reproduces the runtime discussion of §5.2: query
// latency decomposes into model inference (dominant, >98% in the paper) and
// engine processing; an end-to-end model fine-tuned per composite query
// would add tens of hours of training for no accuracy gain.
func RuntimeDecomposition(w *Workspace) ([]Table, error) {
	stream, spec, err := w.QueryStream(video.DefaultGeometry, "q1")
	if err != nil {
		return nil, err
	}
	models := w.Models()
	var meter detect.Meter
	cfg := core.DefaultConfig()
	cfg.Meter = &meter
	eng, err := core.NewSVAQD(models, cfg)
	if err != nil {
		return nil, err
	}
	q := core.Query{Objects: spec.Objects, Action: spec.Action}
	start := time.Now()
	if _, err := eng.Run(context.Background(), stream, q); err != nil {
		return nil, err
	}
	engineTime := time.Since(start)
	inference := meter.Cost(models)
	total := inference + engineTime
	t := Table{
		Title:  "Runtime decomposition (§5.2), q1 = {a=washing_dishes; faucet, oven}",
		Header: []string{"component", "time", "share"},
	}
	t.AddRow("model inference (simulated)", inference.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f%%", 100*float64(inference)/float64(total)))
	t.AddRow("engine processing (measured)", engineTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f%%", 100*float64(engineTime)/float64(total)))
	t.AddRow("SVAQD total", total.Round(time.Millisecond).String(), "100%")
	t.AddRow("end-to-end model (training+inference)",
		(EndToEndTrainingCost + inference).Round(time.Minute).String(), "-")
	return []Table{t}, nil
}
