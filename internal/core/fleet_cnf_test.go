package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// TestRunAllCNFMatchesSerial crosses every extended statement kind — an
// OR-group, a multi-action conjunction and a relation — with both engines
// and one or four workers: per video, a RunAllCNF fleet (one shared planner)
// must produce exactly the result a serial RunCNF produces, stream every
// outcome once and partition the input.
func TestRunAllCNFMatchesSerial(t *testing.T) {
	vids := make([]detect.TruthVideo, 6)
	for i := range vids {
		v, err := synth.Generate(synth.Script{
			ID: fmt.Sprintf("cnf-fleet-%d", i), Frames: 6_000, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(200 + i),
			Actions: []synth.ActionSpec{
				{Name: "jumping", MeanGapShots: 120, MeanDurShots: 30},
				{Name: "dancing", MeanGapShots: 150, MeanDurShots: 25},
			},
			Objects: []synth.ObjectSpec{
				{Name: "human", MeanDurFrames: 320, CorrelatedWith: "jumping", CorrelationProb: 0.9},
				{Name: "car", MeanGapFrames: 2500, MeanDurFrames: 400},
				{Name: "dog", MeanGapFrames: 3000, MeanDurFrames: 350},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		vids[i] = v
	}
	statements := []struct {
		name string
		q    CNF
	}{
		{"or-group", CNF{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human")}},
		}}},
		{"multi-action", CNF{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human"), ObjectAtom("dog")}},
		}}},
		{"relation", CNF{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
		}}},
	}
	for _, s := range statements {
		for _, mk := range goldenEngines {
			eng, err := mk.mk(noisyModels(3), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", s.name, mk.name, workers)
				var streamed atomic.Int64
				fr, err := eng.RunAllCNF(context.Background(), vids, s.q, FleetOptions{
					Workers:  workers,
					OnResult: func(VideoResult) { streamed.Add(1) },
				})
				if err != nil {
					t.Fatalf("%s: RunAllCNF: %v", name, err)
				}
				if got := streamed.Load(); got != int64(len(vids)) {
					t.Errorf("%s: OnResult fired %d times, want %d", name, got, len(vids))
				}
				if total := fr.OK + fr.Degraded + fr.Interrupted + fr.Skipped + fr.Failed; total != len(vids) || fr.OK != len(vids) || fr.TotalSequences == 0 {
					t.Errorf("%s: aggregate %+v, want %d clean videos with sequences", name, fr, len(vids))
				}
				for i, vr := range fr.Videos {
					serial, err := eng.RunCNF(context.Background(), vids[i], s.q)
					if err != nil {
						t.Fatal(err)
					}
					got := vr.Result
					if vr.Index != i || got == nil {
						t.Fatalf("%s: Videos[%d] = %+v", name, i, vr)
					}
					if got.Sequences.String() != serial.Sequences.String() || got.Flagged.String() != serial.Flagged.String() ||
						got.NumClips != serial.NumClips || got.Processed != serial.Processed {
						t.Errorf("%s video %d: fleet %v flagged %v (%d/%d clips), serial %v flagged %v (%d/%d)", name, i,
							got.Sequences, got.Flagged, got.Processed, got.NumClips,
							serial.Sequences, serial.Flagged, serial.Processed, serial.NumClips)
					}
				}
			}
		}
	}
}
