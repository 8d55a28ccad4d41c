// Extended: the query extensions of the paper's footnotes 2-4 — spatial
// relationships between objects, multiple actions, and disjunctions — run
// through the engine's CNF path.
//
//	go run ./examples/extended
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/synth"
	"svqact/internal/video"
)

func main() {
	v, err := synth.Generate(synth.Script{
		ID: "park", Frames: 36_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 7,
		Actions: []synth.ActionSpec{
			{Name: "jumping", MeanGapShots: 120, MeanDurShots: 30},
			{Name: "dancing", MeanGapShots: 160, MeanDurShots: 25},
		},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 350, CorrelatedWith: "jumping", CorrelationProb: 0.9},
			{Name: "dog", MeanGapFrames: 2200, MeanDurFrames: 400},
			{Name: "car", MeanGapFrames: 2600, MeanDurFrames: 300},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	models := detect.NewModels(
		detect.NewObjectDetector(detect.MaskRCNN, 7),
		detect.NewActionRecognizer(detect.I3D, 7),
	)
	eng, err := core.NewSVAQD(models, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	queries := []core.CNF{
		// Disjunction of actions (footnote 4): either activity qualifies.
		{Clauses: []core.Clause{
			{Atoms: []core.Atom{core.ActionAtom("jumping"), core.ActionAtom("dancing")}},
			{Atoms: []core.Atom{core.ObjectAtom("human")}},
		}},
		// Conjunction of actions (footnote 3): both at once.
		{Clauses: []core.Clause{
			{Atoms: []core.Atom{core.ActionAtom("jumping")}},
			{Atoms: []core.Atom{core.ActionAtom("dancing")}},
		}},
		// Spatial relationship (footnote 2): someone jumping near a dog.
		{Clauses: []core.Clause{
			{Atoms: []core.Atom{core.ActionAtom("jumping")}},
			{Atoms: []core.Atom{core.RelationAtom(detect.Near, "human", "dog")}},
		}},
	}
	lat := obs.NewHistogram(nil)
	for _, q := range queries {
		start := time.Now()
		res, err := eng.RunCNF(context.Background(), v, q)
		if err != nil {
			log.Fatal(err)
		}
		lat.ObserveDuration(time.Since(start))
		fmt.Printf("query: %s\n", q)
		if res.Sequences.Empty() {
			fmt.Println("  (no result sequences)")
		}
		for _, iv := range res.Sequences.Intervals() {
			fr := v.Geometry().FrameRangeOfClips(iv)
			fmt.Printf("  clips %3d..%-3d  (%5.1fs .. %5.1fs)\n",
				iv.Start, iv.End, float64(fr.Start)/v.Meta.FPS, float64(fr.End+1)/v.Meta.FPS)
		}
		for _, a := range res.Predicates {
			fmt.Printf("  atom %-20s k_crit=%d positive clips=%d\n",
				a.Name, a.Critical, a.Clips.TotalLen())
		}
		fmt.Println()
	}
	fmt.Printf("CNF query latency: %s\n", lat.Summary())
}
