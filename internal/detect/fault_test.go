package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"svqact/internal/synth"
	"svqact/internal/testenv"
	"svqact/internal/video"
)

// attempter invokes a model one unit at a time.
type attempter struct{ Model }

// score is the model's one-unit Score at the attempt.
func (m attempter) score(v TruthVideo, label string, unit, attempt int) (float64, error) {
	var s [1]float64
	_, err := m.Score(v, label, unit, s[:], 0, Need{}, attempt)
	return s[0], err
}

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
	a := attempter{InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), cfg)}
	b := attempter{InjectObjectFaults(NewObjectDetector(MaskRCNN, 1), cfg)}
	for frame := 0; frame < 200; frame++ {
		for attempt := 0; attempt < 3; attempt++ {
			_, errA := a.score(v, "car", frame, attempt)
			_, errB := b.score(v, "car", frame, attempt)
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
	d := attempter{InjectObjectFaults(NewObjectDetector(MaskRCNN, 1),
		FaultConfig{TransientRate: 0.4, PermanentRate: 0.1, Seed: 3})}
	sawTransientClear := false
	sawPermanent := false
	for frame := 0; frame < 500; frame++ {
		_, err0 := d.score(v, "car", frame, 0)
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
				if _, err := d.score(v, "car", frame, attempt); err == nil || IsTransient(err) {
					t.Fatalf("frame %d: permanent fault cleared on attempt %d (%v)", frame, attempt, err)
				}
			}
			continue
		}
		// Transient: some retry within a generous budget must succeed.
		for attempt := 1; attempt < 32; attempt++ {
			if _, err := d.score(v, "car", frame, attempt); err == nil {
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

// TestFaultyDecoratorsDelegatePlainMethods: a decorator adds faults and
// nothing else — wherever its draw lets an invocation through, the score is
// the wrapped model's, and its name and unit cost are the wrapped model's.
func TestFaultyDecoratorsDelegatePlainMethods(t *testing.T) {
	v := faultVideo(t)
	inner := NewObjectDetector(MaskRCNN, 1)
	d := attempter{InjectObjectFaults(inner, FaultConfig{TransientRate: 0.5, PermanentRate: 0.2, Seed: 3})}
	ra := NewActionRecognizer(I3D, 1)
	fr := attempter{InjectActionFaults(ra, FaultConfig{TransientRate: 0.5, Seed: 3})}
	passed := 0
	for unit := 0; unit < 100; unit++ {
		for attempt := 0; attempt < 3; attempt++ {
			if s, err := d.score(v, "car", unit, attempt); err == nil {
				passed++
				if s != inner.FrameScore(v, "car", unit) {
					t.Fatalf("frame %d attempt %d: score diverges from the inner model's", unit, attempt)
				}
			}
			if s, err := fr.score(v, "jumping", unit, attempt); err == nil && s != unitScore(ra, v, "jumping", unit) {
				t.Fatalf("shot %d attempt %d: score diverges from the inner model's", unit, attempt)
			}
		}
	}
	if passed == 0 || passed == 300 {
		t.Fatalf("%d of 300 invocations passed: the faults were not exercised", passed)
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
	nan := math.NaN()
	for _, c := range []FaultConfig{{TransientRate: nan}, {PermanentRate: nan}, {SpikeRate: 0.1, TransientRate: nan}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: a NaN rate should be rejected", c)
		}
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
	for _, cfg := range []RetryConfig{
		{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
		DefaultRetryConfig(),                           // BaseDelay << 43 wraps negative
		{Attempts: 3, BaseDelay: 2 * time.Millisecond}, // no MaxDelay: saturates
	} {
		ceiling := float64(cfg.MaxDelay)
		if ceiling <= 0 {
			ceiling = math.MaxInt64 / 2
		}
		for retry := 0; retry <= 100; retry++ {
			// Jitter scales min(BaseDelay·2^retry, MaxDelay) by [0.5, 1.5).
			capped := math.Min(float64(cfg.BaseDelay)*math.Pow(2, float64(retry)), ceiling)
			for i := 0; i < 20; i++ {
				if d := cfg.backoff(retry); float64(d) < 0.5*capped || float64(d) >= 1.5*capped {
					t.Fatalf("%+v retry %d: backoff %v outside [0.5, 1.5) x %v", cfg, retry, d, time.Duration(capped))
				}
			}
		}
	}
	if (RetryConfig{Attempts: 3}).backoff(0) != 0 {
		t.Error("zero BaseDelay should not sleep")
	}
}

func TestLatencySpikes(t *testing.T) {
	v := faultVideo(t)
	d := attempter{InjectObjectFaults(NewObjectDetector(MaskRCNN, 1),
		FaultConfig{SpikeRate: 1, SpikeDelay: 2 * time.Millisecond, Seed: 7})}
	start := time.Now()
	if _, err := d.score(v, "car", 0, 0); err != nil {
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

// refFault is the per-attempt fault draw the batch draw replaced, kept
// verbatim (receiver aside) as its referee: every unit and attempt folds the
// seed and both string hashes afresh and sleeps its own spike.
func refFault(c faultCore, model, kind string, v TruthVideo, typ string, unit, attempt int) error {
	h := keyed(c.seed, hashString(v.ID()), hashString(typ), uint64(unit))
	if c.cfg.SpikeRate > 0 && c.cfg.SpikeDelay > 0 &&
		unitFloat(keyed(h, uint64(attempt), 0x51a7e)) < c.cfg.SpikeRate {
		time.Sleep(c.cfg.SpikeDelay)
	}
	if c.cfg.PermanentRate > 0 && unitFloat(mix64(h^0xdead)) < c.cfg.PermanentRate {
		return &DetectionError{Model: model, Kind: kind, Type: typ, Unit: unit, Transient: false}
	}
	if c.cfg.TransientRate > 0 && unitFloat(keyed(h, uint64(attempt), 0xf1a9)) < c.cfg.TransientRate {
		return &DetectionError{Model: model, Kind: kind, Type: typ, Unit: unit, Transient: true}
	}
	return nil
}

// TestFaultDrawMatchesReference: over seeds, rates (spikes with a tiny delay
// included), random runs, both kinds and several attempts, a batch's draw
// stops exactly where the per-unit reference first fails, with the
// reference's error, and counts each invoked unit's spike once: a batch's
// spikes are the sum of its invoked units' one-unit draws.
func TestFaultDrawMatchesReference(t *testing.T) {
	v := faultVideo(t)
	r := rand.New(rand.NewPCG(7, 0xfa17))
	failures, spikes := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		for _, rates := range [][3]float64{{0.3, 0, 0}, {0, 0.05, 0}, {0.2, 0.02, 0.3}, {1, 0, 0}, {0, 1, 0.5}, {1e-12, 0, 0}} {
			cfg := FaultConfig{TransientRate: rates[0], PermanentRate: rates[1], SpikeRate: rates[2], SpikeDelay: time.Nanosecond, Seed: seed}
			for _, kind := range []string{KindObject, KindAction} {
				c := newFaultCore(cfg, "m", kind)
				for run := 0; run < 12; run++ {
					start, n := r.IntN(v.NumFrames()), r.IntN(60)
					for attempt := 0; attempt < 3; attempt++ {
						where := fmt.Sprintf("seed %d rates %v %s units [%d,+%d) attempt %d", seed, rates, kind, start, n, attempt)
						ok, got, err := c.draw(v, "car", start, n, attempt)
						wantOK, wantErr := n, error(nil)
						for u := start; u < start+n; u++ {
							if e := refFault(c, "m", kind, v, "car", u, attempt); e != nil {
								wantOK, wantErr = u-start, e
								break
							}
						}
						if ok != wantOK || !reflect.DeepEqual(err, wantErr) {
							t.Fatalf("%s: draw = (%d, %v), reference (%d, %v)", where, ok, err, wantOK, wantErr)
						}
						invoked, want := min(ok+1, n), 0
						for u := start; u < start+invoked; u++ {
							_, s, _ := c.draw(v, "car", u, 1, attempt)
							want += s
						}
						if got != want {
							t.Fatalf("%s: %d spikes, the invoked units' own draws %d", where, got, want)
						}
						if err != nil {
							failures++
						}
						spikes += got
					}
				}
			}
		}
	}
	if failures == 0 || spikes == 0 {
		t.Fatalf("table too tame: %d failed draws, %d spikes", failures, spikes)
	}
}

// TestFaultSpikesMatchReference: a unit's one-unit draw spikes exactly when
// the reference sleeps on it, timed with a delay far above a draw's cost.
func TestFaultSpikesMatchReference(t *testing.T) {
	v := faultVideo(t)
	const delay = 5 * time.Millisecond
	c := newFaultCore(FaultConfig{SpikeRate: 0.3, SpikeDelay: delay, Seed: 4}, "m", KindObject)
	spiked := 0
	for unit := 0; unit < 12; unit++ {
		for attempt := 0; attempt < 2; attempt++ {
			t0 := time.Now()
			refFault(c, "m", KindObject, v, "car", unit, attempt)
			slept := time.Since(t0) >= delay
			t0 = time.Now()
			_, s, _ := c.draw(v, "car", unit, 1, attempt)
			if (s == 1) != slept || s == 1 && time.Since(t0) < delay {
				t.Fatalf("unit %d attempt %d: draw spikes %d, reference slept %v", unit, attempt, s, slept)
			}
			spiked += s
		}
	}
	if spiked == 0 {
		t.Fatal("no spike drawn")
	}
}
