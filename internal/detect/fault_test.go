package detect

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"svqact/internal/synth"
	"svqact/internal/testenv"
	"svqact/internal/video"
)

func faultVideo(t *testing.T) *synth.Video {
	t.Helper()
	v, err := synth.Generate(synth.Script{
		ID: "fault-vid", Frames: 3000, FPS: 10, Geometry: video.DefaultGeometry, Seed: 5,
		Actions: []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{{Name: "car", MeanGapFrames: 400, MeanDurFrames: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFaultDeterminism(t *testing.T) {
	v := faultVideo(t)
	cfg := FaultConfig{TransientRate: 0.3, PermanentRate: 0.05, Seed: 11}
	a := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), cfg)
	b := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), cfg)
	for frame := 0; frame < 200; frame++ {
		for attempt := 0; attempt < 3; attempt++ {
			_, errA := a.FrameScoreAttempt(v, "car", frame, attempt)
			_, errB := b.FrameScoreAttempt(v, "car", frame, attempt)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("frame %d attempt %d: fault draws differ", frame, attempt)
			}
			if errA != nil && errA.Error() != errB.Error() {
				t.Fatalf("frame %d attempt %d: errors differ: %v vs %v", frame, attempt, errA, errB)
			}
		}
	}
}

func TestFaultPermanentPersistsTransientClears(t *testing.T) {
	v := faultVideo(t)
	d := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1),
		FaultConfig{TransientRate: 0.4, PermanentRate: 0.1, Seed: 3})
	sawTransientClear := false
	sawPermanent := false
	for frame := 0; frame < 500; frame++ {
		_, err0 := d.FrameScoreAttempt(v, "car", frame, 0)
		if err0 == nil {
			continue
		}
		var de *DetectionError
		if !errors.As(err0, &de) {
			t.Fatalf("frame %d: unexpected error type %T", frame, err0)
		}
		if !de.Transient {
			sawPermanent = true
			// Every later attempt must fail identically.
			for attempt := 1; attempt < 4; attempt++ {
				if _, err := d.FrameScoreAttempt(v, "car", frame, attempt); err == nil || IsTransient(err) {
					t.Fatalf("frame %d: permanent fault cleared on attempt %d (%v)", frame, attempt, err)
				}
			}
			continue
		}
		// Transient: some retry within a generous budget must succeed.
		for attempt := 1; attempt < 32; attempt++ {
			if _, err := d.FrameScoreAttempt(v, "car", frame, attempt); err == nil {
				sawTransientClear = true
				break
			}
		}
	}
	if !sawTransientClear {
		t.Error("no transient fault cleared on retry")
	}
	if !sawPermanent {
		t.Error("no permanent fault drawn at 10% over 500 frames")
	}
}

func TestFaultyDecoratorsDelegatePlainMethods(t *testing.T) {
	v := faultVideo(t)
	inner := NewObjectDetector(MaskRCNN, 1)
	d := InjectObjectFaults(inner, FaultConfig{TransientRate: 0.9, PermanentRate: 0.5, Seed: 3})
	for frame := 0; frame < 50; frame++ {
		if d.FrameScore(v, "car", frame) != inner.FrameScore(v, "car", frame) {
			t.Fatalf("plain FrameScore diverges at %d", frame)
		}
	}
	ra := NewActionRecognizer(I3D, 1)
	fr := InjectActionFaults(ra, FaultConfig{TransientRate: 0.9, Seed: 3})
	for shot := 0; shot < 50; shot++ {
		if fr.ShotScore(v, "jumping", shot) != ra.ShotScore(v, "jumping", shot) {
			t.Fatalf("plain ShotScore diverges at %d", shot)
		}
	}
	if d.Name() != inner.Name() || d.UnitCost() != inner.UnitCost() {
		t.Error("object decorator must delegate metadata")
	}
	if fr.Name() != ra.Name() || fr.UnitCost() != ra.UnitCost() {
		t.Error("action decorator must delegate metadata")
	}
}

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{TransientRate: 0.5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (FaultConfig{TransientRate: 1.5}).Validate(); err == nil {
		t.Error("rate > 1 should be rejected")
	}
	if err := (FaultConfig{PermanentRate: -0.1}).Validate(); err == nil {
		t.Error("negative rate should be rejected")
	}
}

func TestRetryAbsorbsTransient(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 3}, func(attempt int) error {
		calls++
		if attempt < 2 {
			return &DetectionError{Model: "m", Kind: "object", Type: "car", Unit: 1, Transient: true}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want success after 3 calls", err, calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	perm := &DetectionError{Model: "m", Kind: "object", Type: "car", Unit: 1, Transient: false}
	err := Retry(context.Background(), RetryConfig{Attempts: 5}, func(attempt int) error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; permanent failures must not retry", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 4}, func(attempt int) error {
		calls++
		return &DetectionError{Transient: true}
	})
	if err == nil || calls != 4 {
		t.Fatalf("err = %v, calls = %d; want last transient error after 4 attempts", err, calls)
	}
	var de *DetectionError
	if !errors.As(err, &de) || !de.Transient {
		t.Fatalf("exhausted retry should surface the transient error, got %v", err)
	}
}

func TestRetryHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryConfig{Attempts: 10, BaseDelay: time.Hour}, func(attempt int) error {
		calls++
		cancel() // cancel while "waiting" for the backoff
		return &DetectionError{Transient: true}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d; backoff sleep must abort on cancellation", calls)
	}

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := Retry(cancelled, DefaultRetryConfig(), func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx should short-circuit, got %v", err)
	}
}

func TestRetryUnknownErrorsAreTransient(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 2}, func(attempt int) error {
		calls++
		return fmt.Errorf("socket reset")
	})
	if err == nil || calls != 2 {
		t.Fatalf("err = %v, calls = %d; unknown errors should retry", err, calls)
	}
}

func TestBackoffCapsAndJitters(t *testing.T) {
	cfg := RetryConfig{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond}
	for retry := 0; retry < 6; retry++ {
		for i := 0; i < 20; i++ {
			d := cfg.backoff(retry)
			if d < 0 || d >= time.Duration(1.5*float64(25*time.Millisecond)) {
				t.Fatalf("retry %d: backoff %v outside [0, 1.5*MaxDelay)", retry, d)
			}
		}
	}
	if (RetryConfig{Attempts: 3}).backoff(0) != 0 {
		t.Error("zero BaseDelay should not sleep")
	}
}

func TestLatencySpikes(t *testing.T) {
	v := faultVideo(t)
	d := InjectObjectFaults(NewObjectDetector(MaskRCNN, 1),
		FaultConfig{SpikeRate: 1, SpikeDelay: 2 * time.Millisecond, Seed: 7})
	start := time.Now()
	if _, err := d.FrameScoreAttempt(v, "car", 0, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("spike rate 1 should delay every call; elapsed %v", elapsed)
	}
}

// asPermanent is an error that is not a *DetectionError but answers
// errors.As for one, the hook errors.As honours besides unwrapping.
type asPermanent struct{}

func (asPermanent) Error() string { return "as-permanent" }
func (asPermanent) As(target any) bool {
	if de, ok := target.(**DetectionError); ok {
		*de = &DetectionError{Model: "as"}
		return true
	}
	return false
}

// TestIsTransientMatchesErrorsAs: the allocation-free walk classifies every
// shape of error as errors.As does — bare, wrapped once or twice, joined
// (depth first, the first match wins), through an As method, and foreign
// errors (transient, as an unknown remote failure is).
func TestIsTransientMatchesErrorsAs(t *testing.T) {
	perm := &DetectionError{Model: "m", Transient: false}
	trans := &DetectionError{Model: "m", Transient: true}
	viaAs := func(err error) bool {
		var de *DetectionError
		if errors.As(err, &de) {
			return de.Transient
		}
		return err != nil
	}
	for _, err := range []error{
		nil, errors.New("foreign"), context.Canceled, perm, trans,
		fmt.Errorf("tier: %w", perm), fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", trans)),
		errors.Join(errors.New("foreign"), perm), errors.Join(trans, perm), errors.Join(perm, trans),
		fmt.Errorf("both: %w and %w", errors.New("x"), perm), fmt.Errorf("wrapped: %w", errors.Join(nil, trans)),
		asPermanent{}, fmt.Errorf("wrapped: %w", asPermanent{}),
	} {
		if got, want := IsTransient(err), viaAs(err); got != want {
			t.Errorf("IsTransient(%v) = %v, errors.As says %v", err, got, want)
		}
	}
}

// TestIsTransientAllocsSteadyState: classifying a failed attempt — which the
// walker and Retry each do per failure — allocates nothing, on a wrapped and
// on a joined *DetectionError.
func TestIsTransientAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	de := &DetectionError{Model: "m", Transient: true}
	for _, err := range []error{fmt.Errorf("tier: %w", de), errors.Join(errors.New("x"), de)} {
		if allocs := testing.AllocsPerRun(100, func() {
			if !IsTransient(err) {
				t.Fatal("lost the transient flag")
			}
		}); allocs != 0 {
			t.Errorf("IsTransient(%v) allocates %.0f objects per call, want 0", err, allocs)
		}
	}
}
