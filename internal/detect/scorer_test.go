package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"svqact/internal/testenv"
)

// refTier is a tier as the reference sees it: one invocation that may fail.
type refTier struct {
	cost     time.Duration
	band     Band
	fallible bool
	try      func(unit, attempt int) (float64, error)
}

// refScore is the per-unit reference Scorer.Score is checked against: loop
// units, loop tiers, loop attempts. It shares no code with the walker — no
// batch call, no Retry helper (the tests retry without backoff, so there is
// no sleep to model).
func refScore(ctx context.Context, tiers []refTier, start, from int, dst []float64, attempts int, acc *Account) (int, error) {
	last := len(tiers) - 1
	for i := range dst {
	chain:
		for ti := from; ; ti++ {
			t := tiers[ti]
			var s float64
			var err error
			tried := int64(0)
			for a := 0; a < attempts && (!t.fallible || ctx.Err() == nil); a++ {
				tried++
				if s, err = t.try(start+i, a); err == nil {
					break
				}
				var de *DetectionError
				if errors.As(err, &de) && !de.Transient {
					acc.Permanent++
					break
				}
				acc.Transient++
			}
			if tried > 0 { // an attempt never made charges nothing
				acc.Units[ti]++
				acc.Attempts += tried
				acc.Retries += tried - 1
				acc.Cost += time.Duration(tried) * t.cost
			}
			switch {
			case t.fallible && ctx.Err() != nil:
				return i, ctx.Err()
			case err != nil && ti == last:
				return i, err
			case err != nil:
				acc.Escalated[ti]++
				acc.Fallthroughs[ti]++
			case ti < last && s >= t.band.Lo && s < t.band.Hi:
				acc.Escalated[ti]++
			default:
				acc.Decided[ti]++
				dst[i] = s
				break chain
			}
		}
	}
	return len(dst), nil
}

// failingActionRecognizer is the shot-level failingObjectDetector.
type failingActionRecognizer struct{ name string }

func (r failingActionRecognizer) Name() string            { return r.name }
func (r failingActionRecognizer) UnitCost() time.Duration { return time.Millisecond }
func (r failingActionRecognizer) Score(_ TruthVideo, _ string, start int, _ []float64, _ float64, _ int) (int, error) {
	return 0, &DetectionError{Model: r.name, Unit: start, Transient: true}
}

// refTierOf binds a model to the reference: one invocation is the model's
// one-unit Score at the attempt. Every model may fail, so every tier is
// fallible to the reference.
func refTierOf(m Model, band Band, v TruthVideo, label string) refTier {
	return refTier{cost: m.UnitCost(), band: band, fallible: true, try: func(unit, attempt int) (float64, error) {
		var s [1]float64
		_, err := m.Score(v, label, unit, s[:], 0, attempt)
		return s[0], err
	}}
}

// scorerCase is one (models, kind) cell of the equivalence table: the
// walker's chains and the same models as reference tiers, cheap then
// accurate.
type scorerCase struct {
	name     string
	label    string
	one, two *Scorer
	ref      []refTier
}

func objectCase(name string, v TruthVideo, cheap, accurate ObjectDetector) scorerCase {
	casc := NewObjectCascade(ObjectTier{Detector: cheap, Band: RecallBand()}, ObjectTier{Detector: accurate})
	return scorerCase{
		name: name + "/object", label: "car", one: ScorerOf(accurate), two: ScorerOf(casc),
		ref: []refTier{refTierOf(cheap, RecallBand(), v, "car"), refTierOf(accurate, Band{}, v, "car")},
	}
}

func actionCase(name string, v TruthVideo, cheap, accurate ActionRecognizer) scorerCase {
	casc := NewActionCascade(ActionTier{Recognizer: cheap, Band: RecallBand()}, ActionTier{Recognizer: accurate})
	return scorerCase{
		name: name + "/action", label: "jumping", one: ScorerOf(accurate), two: ScorerOf(casc),
		ref: []refTier{refTierOf(cheap, RecallBand(), v, "jumping"), refTierOf(accurate, Band{}, v, "jumping")},
	}
}

func scorerCases(v TruthVideo) []scorerCase {
	var cases []scorerCase
	add := func(name string, objProf, actProf Profile, fc *FaultConfig, deadCheap bool) {
		obj, act := ObjectDetector(NewObjectDetector(objProf, 5)), ActionRecognizer(NewActionRecognizer(actProf, 5))
		objCheap := ObjectDetector(NewDistilledObjectDetector(obj, DistilledRCNN, 5))
		actCheap := ActionRecognizer(NewDistilledActionRecognizer(act, DistilledI3D, 5))
		if fc != nil {
			// Faults compose per tier, as the server builds its cascades.
			obj, objCheap = InjectObjectFaults(obj, *fc), InjectObjectFaults(objCheap, *fc)
			act, actCheap = InjectActionFaults(act, *fc), InjectActionFaults(actCheap, *fc)
		}
		if deadCheap {
			objCheap = failingObjectDetector{name: "dead-proxy", transient: true}
			actCheap = failingActionRecognizer{name: "dead-proxy"}
		}
		cases = append(cases, objectCase(name, v, objCheap, obj), actionCase(name, v, actCheap, act))
	}
	add("ideal", IdealObject, IdealAction, nil, false)
	add("noisy", MaskRCNN, I3D, nil, false)
	add("transient-faulty", MaskRCNN, I3D, &FaultConfig{TransientRate: 0.3, Seed: 21}, false)
	add("permanent-faulty", MaskRCNN, I3D, &FaultConfig{PermanentRate: 0.02, Seed: 4}, false)
	add("failing-cheap-tier", MaskRCNN, I3D, nil, true)
	return cases
}

// lastTier projects a two-tier account that never touched tier 0 onto the
// one-tier shape, for the field-for-field comparison.
func lastTier(t *testing.T, a Account) Account {
	t.Helper()
	if a.Units[0]+a.Decided[0]+a.Escalated[0]+a.Fallthroughs[0] != 0 {
		t.Fatalf("entered at the last tier but tier 0 was touched: %+v", a)
	}
	a.Units, a.Decided, a.Escalated, a.Fallthroughs = a.Units[1:], a.Decided[1:], a.Escalated[1:], a.Fallthroughs[1:]
	return a
}

// TestScorerMatchesReference is the walker's contract: over every model
// configuration, both unit kinds and every way into a chain, Score produces
// the reference's scores, scored count, error and account — including the
// stated corners: the unit that exhausts its retries counts in Units, the
// scores before a failure survive it, and every failed attempt is classified
// by IsTransient.
func TestScorerMatchesReference(t *testing.T) {
	v := testVideo(t, 41)
	const run, runs, attempts = 40, 25, 3
	retry := RetryConfig{Attempts: attempts}
	ctx := context.Background()
	failures, fallthroughs, retries := 0, int64(0), int64(0)
	for _, c := range scorerCases(v) {
		shapes := []struct {
			name   string
			chain  *Scorer
			ref    []refTier
			from   int
			equals int // index of the shape whose account this one must equal, or -1
		}{
			{"one-tier", c.one, c.ref[1:], 0, -1},
			{"two-tier@0", c.two, c.ref, 0, -1},
			{"two-tier@last", c.two, c.ref, 1, 0},
		}
		for k := 0; k < runs; k++ {
			start := k * run
			var kept []Account
			for _, sh := range shapes {
				name := fmt.Sprintf("%s/%s/run%d", c.name, sh.name, k)
				var got, want Account
				got.Reset(len(sh.ref))
				want.Reset(len(sh.ref))
				gotDst, wantDst := make([]float64, run), make([]float64, run)
				gotN, gotErr := sh.chain.Score(ctx, v, c.label, start, sh.from, gotDst, 0, retry, &got)
				wantN, wantErr := refScore(ctx, sh.ref, start, sh.from, wantDst, attempts, &want)
				if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s: scored %d err %v, reference %d err %v", name, gotN, gotErr, wantN, wantErr)
				}
				if !reflect.DeepEqual(gotDst[:gotN], wantDst[:wantN]) {
					t.Fatalf("%s: scores diverge from the reference", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: account\n got %+v\nwant %+v", name, got, want)
				}
				if sh.equals >= 0 && !reflect.DeepEqual(lastTier(t, got), kept[sh.equals]) {
					t.Fatalf("%s: entered at the last tier\n got %+v\nwant the one-tier chain's %+v", name, lastTier(t, got), kept[sh.equals])
				}
				kept = append(kept, got)
				if gotErr != nil {
					failures++
					if last := len(got.Units) - 1; got.Units[last] != got.Decided[last]+1 {
						t.Fatalf("%s: the failing unit was invoked and must count in Units: %+v", name, got)
					}
				}
				fallthroughs += got.Fallthroughs[0]
				retries += got.Retries
			}
		}
	}
	// The table must actually reach the corners it claims to pin.
	if failures == 0 || fallthroughs == 0 || retries == 0 {
		t.Fatalf("table too tame: %d failed runs, %d fallthroughs, %d retries", failures, fallthroughs, retries)
	}
}

// TestScorerCancelledContextChargesNothing: a unit whose context ended before
// its first attempt was never invoked — no unit, no attempt, no cost and no
// negative retry — on a fallible plain model and a fallible cascade alike.
func TestScorerCancelledContextChargesNothing(t *testing.T) {
	v := testVideo(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range scorerCases(v) {
		if !c.ref[1].fallible || !c.ref[0].fallible {
			continue
		}
		for _, chain := range []*Scorer{c.one, c.two} {
			var got, zero Account
			got.Reset(len(chain.Tiers()))
			zero.Reset(len(chain.Tiers()))
			n, err := chain.Score(ctx, v, c.label, 0, 0, make([]float64, 8), 0, RetryConfig{Attempts: 3}, &got)
			if n != 0 || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: scored %d err %v, want 0 and context.Canceled", c.name, n, err)
			}
			if !reflect.DeepEqual(got, zero) {
				t.Errorf("%s: cancelled before the first attempt yet charged %+v", c.name, got)
			}
		}
	}
}

// TestScoreAllocsSteadyState: the walker itself allocates nothing — not for a
// plain model's batch call, not for a cascade's escalations, not for a fault
// decorator whose draws never fail. The label is a type the video never
// shows, so the simulated models have no instance lists to materialise and
// every allocation counted would be the walker's own; the cheap tier's false
// positives still escalate. Deciding at a threshold allocates nothing either.
func TestScoreAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := testVideo(t, 43)
	teacher := NewObjectDetector(MaskRCNN, 5)
	for _, c := range []struct {
		name  string
		chain *Scorer
		tau   float64
	}{
		{"single", ScorerOf(teacher), 0},
		{"single@0.5", ScorerOf(teacher), DefaultThreshold},
		{"cascade", ScorerOf(NewDistilledObjectCascade(teacher, DistilledRCNN, 5)), 0},
		{"fallible", ScorerOf(InjectObjectFaults(teacher, FaultConfig{TransientRate: 1e-12, Seed: 5})), 0},
	} {
		var acc Account
		dst := make([]float64, 500)
		score := func() {
			acc.Reset(len(c.chain.Tiers()))
			if _, err := c.chain.Score(context.Background(), v, "ghost", 0, 0, dst, c.tau, RetryConfig{}, &acc); err != nil {
				t.Fatal(err)
			}
		}
		score() // warm the models' overlay caches and the account's slices
		if c.name == "cascade" && acc.Escalated[0] == 0 {
			t.Fatal("no escalations: the cascade's walk was not exercised")
		}
		if allocs := testing.AllocsPerRun(20, score); allocs != 0 {
			t.Errorf("%s: Score allocates %.0f objects per call, want 0", c.name, allocs)
		}
	}
}

// FuzzScorerMatchesReference fuzzes the walker against refScore: the fault
// seed and rates of every tier, the run's start and length, the retry
// budget, the entry tier, one tier or a cascade of two, objects or actions.
func FuzzScorerMatchesReference(f *testing.F) {
	v := testVideo(f, 41)
	f.Add(int64(21), 0.3, 0.0, uint16(0), uint8(40), uint8(3), uint8(0), true, true)
	f.Add(int64(4), 0.0, 0.02, uint16(900), uint8(200), uint8(2), uint8(1), true, false)
	f.Add(int64(7), 1.0, 0.0, uint16(77), uint8(9), uint8(1), uint8(0), false, true)
	f.Fuzz(func(t *testing.T, seed int64, transient, permanent float64, start uint16, length, attempts, from uint8, cascade, objects bool) {
		rate := func(p float64) float64 {
			if math.IsNaN(p) {
				return 0
			}
			return min(1, math.Abs(p))
		}
		fc := FaultConfig{TransientRate: rate(transient), PermanentRate: rate(permanent), Seed: seed}
		var c scorerCase
		units := v.NumFrames()
		if objects {
			teacher := NewObjectDetector(MaskRCNN, 5)
			c = objectCase("fuzz", v, InjectObjectFaults(NewDistilledObjectDetector(teacher, DistilledRCNN, 5), fc), InjectObjectFaults(teacher, fc))
		} else {
			teacher := NewActionRecognizer(I3D, 5)
			c = actionCase("fuzz", v, InjectActionFaults(NewDistilledActionRecognizer(teacher, DistilledI3D, 5), fc), InjectActionFaults(teacher, fc))
			units = v.Geometry().NumShots(v.NumFrames())
		}
		chain, ref := c.one, c.ref[1:]
		if cascade {
			chain, ref = c.two, c.ref
		}
		s := int(start) % units
		n, entry, tries := min(int(length), units-s), int(from)%len(ref), 1+int(attempts)%5
		var got, want Account
		got.Reset(len(ref))
		want.Reset(len(ref))
		gotDst, wantDst := make([]float64, n), make([]float64, n)
		gotN, gotErr := chain.Score(context.Background(), v, c.label, s, entry, gotDst, 0, RetryConfig{Attempts: tries}, &got)
		wantN, wantErr := refScore(context.Background(), ref, s, entry, wantDst, tries, &want)
		if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("scored %d err %v, reference %d err %v", gotN, gotErr, wantN, wantErr)
		}
		if !reflect.DeepEqual(gotDst[:gotN], wantDst[:wantN]) {
			t.Fatal("scores diverge from the reference")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("account\n got %+v\nwant %+v", got, want)
		}
	})
}
