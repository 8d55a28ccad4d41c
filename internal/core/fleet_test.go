package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/synth"
	"svqact/internal/testenv"
	"svqact/internal/video"
)

// fleetVideos generates n small synthetic videos with distinct scripts.
func fleetVideos(t *testing.T, n, frames int) []detect.TruthVideo {
	t.Helper()
	vids := make([]detect.TruthVideo, n)
	for i := range vids {
		v, err := synth.Generate(synth.Script{
			ID:     "fleet-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26)),
			Frames: frames, FPS: 10, Geometry: video.DefaultGeometry, Seed: int64(100 + i),
			Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
			Objects: []synth.ObjectSpec{
				{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		vids[i] = v
	}
	return vids
}

var fleetQuery = Query{Objects: []string{"human"}, Action: "jumping"}

// TestRunAllFleetMatchesSerial is the tentpole acceptance test: a fleet of 64
// synthetic videos through RunAll (under -race via scripts/check.sh) must
// produce, per video, exactly the result a serial per-video Run produces, in
// input order, while streaming outcomes through OnResult.
func TestRunAllFleetMatchesSerial(t *testing.T) {
	vids := fleetVideos(t, 64, 4_000)
	eng, err := NewSVAQD(noisyModels(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var streamed atomic.Int64
	fr, err := eng.RunAll(context.Background(), vids, fleetQuery, FleetOptions{
		Workers:  4,
		OnResult: func(vr VideoResult) { streamed.Add(1) },
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got := streamed.Load(); got != 64 {
		t.Errorf("OnResult fired %d times, want 64", got)
	}
	if len(fr.Videos) != 64 || fr.OK != 64 || fr.Degraded+fr.Interrupted+fr.Skipped+fr.Failed != 0 {
		t.Fatalf("aggregate = %+v, want 64 clean videos", fr)
	}
	for i, vr := range fr.Videos {
		if vr.Index != i || vr.ID != vids[i].ID() {
			t.Fatalf("Videos[%d] out of input order: %+v", i, vr)
		}
		serial, err := eng.Run(context.Background(), vids[i], fleetQuery)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		if vr.Result.Sequences.String() != serial.Sequences.String() {
			t.Errorf("video %d: fleet sequences %v != serial %v", i, vr.Result.Sequences, serial.Sequences)
		}
		if vr.Result.Processed != vr.Result.NumClips {
			t.Errorf("video %d: clean run processed %d of %d clips", i, vr.Result.Processed, vr.Result.NumClips)
		}
	}
	if fr.TotalClips == 0 || fr.ProcessedClips != fr.TotalClips {
		t.Errorf("clip accounting: processed %d of %d", fr.ProcessedClips, fr.TotalClips)
	}
}

// TestRunAllDefaultWorkers checks the workers <= 0 -> GOMAXPROCS default and
// the single-worker path agree with the parallel one.
func TestRunAllDefaultWorkers(t *testing.T) {
	vids := fleetVideos(t, 6, 3_000)
	eng, err := NewSVAQD(noisyModels(5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	def, err := eng.RunAll(context.Background(), vids, fleetQuery, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := eng.RunAll(context.Background(), vids, fleetQuery, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vids {
		if def.Videos[i].Result.Sequences.String() != one.Videos[i].Result.Sequences.String() {
			t.Errorf("video %d: default-workers and one-worker fleets disagree", i)
		}
	}
}

// TestRunAllCancellation checks the fleet honours cancellation with partial
// results: dispatch stops, in-flight runs stop at a clip boundary, and the
// aggregate accounts for every input video.
func TestRunAllCancellation(t *testing.T) {
	vids := fleetVideos(t, 32, 4_000)
	eng, err := NewSVAQD(noisyModels(7), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	fr, err := eng.RunAll(ctx, vids, fleetQuery, FleetOptions{
		Workers: 2,
		// Cancel as soon as the first video completes.
		OnResult: func(VideoResult) { once.Do(cancel) },
	})
	defer cancel()
	if err == nil {
		t.Fatal("cancelled fleet returned no error")
	}
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("fleet error %v is not an InterruptedError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fleet error %v does not wrap context.Canceled", err)
	}
	if fr == nil {
		t.Fatal("cancelled fleet returned no partial result")
	}
	if len(fr.Videos) != 32 {
		t.Fatalf("partial result covers %d of 32 videos", len(fr.Videos))
	}
	if fr.OK == 0 {
		t.Error("at least the completed first video should be OK")
	}
	if fr.Skipped == 0 {
		t.Error("cancellation mid-fleet should leave undispatched videos skipped")
	}
	if total := fr.OK + fr.Degraded + fr.Interrupted + fr.Skipped + fr.Failed; total != 32 {
		t.Errorf("outcome partition sums to %d, want 32", total)
	}
	for i, vr := range fr.Videos {
		if vr.ID == "" {
			t.Fatalf("Videos[%d] unaccounted for after cancellation", i)
		}
	}
}

// TestRunAllDegradedVideosDoNotAbortFleet injects permanent detector faults:
// every video degrades past the failure budget, yet the fleet completes and
// reports the degradation per video and in aggregate.
func TestRunAllDegradedVideosDoNotAbortFleet(t *testing.T) {
	vids := fleetVideos(t, 8, 3_000)
	models := noisyModels(9)
	fc := detect.FaultConfig{PermanentRate: 1, Seed: 9}
	models.Objects = detect.InjectObjectFaults(models.Objects, fc)
	models.Actions = detect.InjectActionFaults(models.Actions, fc)
	eng, err := NewSVAQD(models, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := eng.RunAll(context.Background(), vids, fleetQuery, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatalf("fleet with degraded videos should not fail as a whole: %v", err)
	}
	if fr.Degraded != 8 {
		t.Fatalf("Degraded = %d, want 8 (got %+v)", fr.Degraded, fr)
	}
	for i, vr := range fr.Videos {
		var de *DegradedError
		if !errors.As(vr.Err, &de) {
			t.Errorf("video %d error %v is not a DegradedError", i, vr.Err)
		}
		if vr.Result == nil {
			t.Errorf("video %d: degraded run should carry a partial result", i)
		}
		if vr.Outcome() != "degraded" {
			t.Errorf("video %d outcome %q, want degraded", i, vr.Outcome())
		}
	}
}

// TestRunAllFleetTrace checks the fleet emits one span per video plus a root
// span, and suppresses the engines' per-run span trees.
func TestRunAllFleetTrace(t *testing.T) {
	vids := fleetVideos(t, 5, 3_000)
	eng, err := NewSVAQD(noisyModels(11), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("fleet-test")
	ctx := obs.WithTrace(context.Background(), trace)
	if _, err := eng.RunAll(ctx, vids, fleetQuery, FleetOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	names := trace.SpanNames()
	var perVideo, root, engineSpans int
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "fleet.video:"):
			perVideo++
		case n == "fleet.run_all":
			root++
		case n == "engine.run" || strings.HasPrefix(n, "predicate:"):
			engineSpans++
		}
	}
	if perVideo != 5 || root != 1 {
		t.Errorf("spans = %v: want 5 fleet.video spans and 1 root", names)
	}
	if engineSpans != 0 {
		t.Errorf("per-run engine spans leaked into the fleet trace: %v", names)
	}
}

// TestRunAllValidation covers the degenerate inputs.
func TestRunAllValidation(t *testing.T) {
	eng, err := NewSVAQD(noisyModels(1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background(), nil, Query{}, FleetOptions{}); err == nil {
		t.Error("invalid query accepted")
	}
	fr, err := eng.RunAll(context.Background(), nil, fleetQuery, FleetOptions{})
	if err != nil || len(fr.Videos) != 0 {
		t.Errorf("empty fleet: %v, %+v", err, fr)
	}
}

// TestOutcomeAllocsSteadyState: classifying a clean run allocates nothing
// (Outcome runs several times per video on the fleet path), and the error
// classes still resolve.
func TestOutcomeAllocsSteadyState(t *testing.T) {
	for want, vr := range map[string]VideoResult{
		"ok":          {},
		"degraded":    {Err: &DegradedError{}, Result: &Result{}},
		"interrupted": {Err: &InterruptedError{Err: context.Canceled}, Result: &Result{}},
		"skipped":     {Err: context.Canceled},
		"error":       {Err: errors.New("boom"), Result: &Result{}},
	} {
		if got := vr.Outcome(); got != want {
			t.Errorf("Outcome() = %q, want %q", got, want)
		}
	}
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	vr := VideoResult{Result: &Result{}}
	if n := testing.AllocsPerRun(100, func() { _ = vr.Outcome() }); n != 0 {
		t.Fatalf("Outcome allocates %v times on a clean run, want 0", n)
	}
}
