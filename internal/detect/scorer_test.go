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
func (r failingActionRecognizer) Score(_ TruthVideo, _ string, start int, _ []float64, _ float64, _ Need, _ int) (int, error) {
	return 0, &DetectionError{Model: r.name, Unit: start, Transient: true}
}

// refTierOf binds a model to the reference: one invocation is the model's
// one-unit Score at the attempt. Every model may fail, so every tier is
// fallible to the reference.
func refTierOf(m Model, band Band, v TruthVideo, label string) refTier {
	return refTier{cost: m.UnitCost(), band: band, fallible: true, try: func(unit, attempt int) (float64, error) {
		var s [1]float64
		_, err := m.Score(v, label, unit, s[:], 0, Need{}, attempt)
		return s[0], err
	}}
}

// scorerCase is one (models, kind) cell of the equivalence table: the
// walker's chains and the same models as reference tiers — cheap, then
// accurate, and the middle tier of the three-tier chain.
type scorerCase struct {
	name            string
	label           string
	one, two, three *Scorer
	ref             []refTier
	mid             refTier
}

// ref3 is the three-tier chain's reference tiers.
func (c scorerCase) ref3() []refTier { return []refTier{c.ref[0], c.mid, c.ref[1]} }

// midBand is the middle tier's band in the three-tier chains: narrower than
// RecallBand, so a run the entry tier escalates splits again.
var midBand = Band{Lo: 0.3, Hi: 0.8}

func objectCase(name string, v TruthVideo, cheap, mid, accurate ObjectDetector) scorerCase {
	casc := NewObjectCascade(ObjectTier{Detector: cheap, Band: RecallBand()}, ObjectTier{Detector: accurate})
	three := NewObjectCascade(ObjectTier{Detector: cheap, Band: RecallBand()}, ObjectTier{Detector: mid, Band: midBand}, ObjectTier{Detector: accurate})
	return scorerCase{
		name: name + "/object", label: "car", one: ScorerOf(accurate), two: ScorerOf(casc), three: ScorerOf(three),
		ref: []refTier{refTierOf(cheap, RecallBand(), v, "car"), refTierOf(accurate, Band{}, v, "car")},
		mid: refTierOf(mid, midBand, v, "car"),
	}
}

func actionCase(name string, v TruthVideo, cheap, mid, accurate ActionRecognizer) scorerCase {
	casc := NewActionCascade(ActionTier{Recognizer: cheap, Band: RecallBand()}, ActionTier{Recognizer: accurate})
	three := NewActionCascade(ActionTier{Recognizer: cheap, Band: RecallBand()}, ActionTier{Recognizer: mid, Band: midBand}, ActionTier{Recognizer: accurate})
	return scorerCase{
		name: name + "/action", label: "jumping", one: ScorerOf(accurate), two: ScorerOf(casc), three: ScorerOf(three),
		ref: []refTier{refTierOf(cheap, RecallBand(), v, "jumping"), refTierOf(accurate, Band{}, v, "jumping")},
		mid: refTierOf(mid, midBand, v, "jumping"),
	}
}

func scorerCases(v TruthVideo) []scorerCase {
	var cases []scorerCase
	add := func(name string, objProf, actProf Profile, fc *FaultConfig, deadCheap bool) {
		obj, act := ObjectDetector(NewObjectDetector(objProf, 5)), ActionRecognizer(NewActionRecognizer(actProf, 5))
		objCheap := ObjectDetector(NewDistilledObjectDetector(obj, DistilledRCNN, 5))
		actCheap := ActionRecognizer(NewDistilledActionRecognizer(act, DistilledI3D, 5))
		objMid, actMid := ObjectDetector(NewObjectDetector(YOLOv3, 6)), ActionRecognizer(NewActionRecognizer(I3D, 6))
		if fc != nil {
			// Faults compose per tier, as the server builds its cascades.
			obj, objCheap, objMid = InjectObjectFaults(obj, *fc), InjectObjectFaults(objCheap, *fc), InjectObjectFaults(objMid, *fc)
			act, actCheap, actMid = InjectActionFaults(act, *fc), InjectActionFaults(actCheap, *fc), InjectActionFaults(actMid, *fc)
		}
		if deadCheap {
			objCheap = failingObjectDetector{name: "dead-proxy", transient: true}
			actCheap = failingActionRecognizer{name: "dead-proxy"}
		}
		cases = append(cases, objectCase(name, v, objCheap, objMid, obj), actionCase(name, v, actCheap, actMid, act))
	}
	add("ideal", IdealObject, IdealAction, nil, false)
	add("noisy", MaskRCNN, I3D, nil, false)
	add("transient-faulty", MaskRCNN, I3D, &FaultConfig{TransientRate: 0.3, Seed: 21}, false)
	add("permanent-faulty", MaskRCNN, I3D, &FaultConfig{PermanentRate: 0.02, Seed: 4}, false)
	add("failing-cheap-tier", MaskRCNN, I3D, nil, true)
	return cases
}

// lastTier projects an account that never touched a tier below the last
// onto the one-tier shape, for the field-for-field comparison.
func lastTier(t *testing.T, a Account) Account {
	t.Helper()
	last := len(a.Units) - 1
	for i := range last {
		if a.Units[i]+a.Decided[i]+a.Escalated[i]+a.Fallthroughs[i] != 0 {
			t.Fatalf("entered at the last tier but tier %d was touched: %+v", i, a)
		}
	}
	a.Units, a.Decided, a.Escalated, a.Fallthroughs = a.Units[last:], a.Decided[last:], a.Escalated[last:], a.Fallthroughs[last:]
	return a
}

// checkSides compares a walk's scores with the reference's: bit for bit at
// τ ≤ 0, by the side of τ otherwise.
func checkSides(t testing.TB, where string, got, want []float64, tau float64) {
	t.Helper()
	for i := range got {
		if !sameSide(got[i], want[i], tau) {
			t.Fatalf("%s at τ=%v: unit %d scored %v, reference %v", where, tau, i, got[i], want[i])
		}
	}
}

// TestScorerMatchesReference is the walker's contract: over every model
// configuration, both unit kinds, chains of one, two and three tiers, every
// way into a chain and thresholds 0 and 0.5 on the last tier, Score produces
// the reference's scores (at 0.5 their sides), scored count, error and
// account — including the stated corners: the unit that exhausts its
// retries counts in Units, the scores before a failure survive it, and every
// failed attempt is classified by IsTransient. The three-tier chain's middle
// band splits the runs the entry tier escalates, so the walk recurses twice.
func TestScorerMatchesReference(t *testing.T) {
	v := testVideo(t, 41)
	const run, runs, attempts = 40, 25, 3
	retry := RetryConfig{Attempts: attempts}
	ctx := context.Background()
	failures, fallthroughs, retries, deep := 0, int64(0), int64(0), int64(0)
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
			{"three-tier@0", c.three, c.ref3(), 0, -1},
			{"three-tier@1", c.three, c.ref3(), 1, -1},
			{"three-tier@last", c.three, c.ref3(), 2, 0},
		}
		for k := 0; k < runs; k++ {
			start := k * run
			for _, tau := range []float64{0, DefaultThreshold} {
				var kept []Account
				for _, sh := range shapes {
					name := fmt.Sprintf("%s/%s/run%d", c.name, sh.name, k)
					var got, want Account
					got.Reset(len(sh.ref))
					want.Reset(len(sh.ref))
					gotDst, wantDst := make([]float64, run), make([]float64, run)
					gotN, gotErr := sh.chain.Score(ctx, v, c.label, start, sh.from, gotDst, tau, 0, retry, &got)
					wantN, wantErr := refScore(ctx, sh.ref, start, sh.from, wantDst, attempts, &want)
					if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
						t.Fatalf("%s at τ=%v: scored %d err %v, reference %d err %v", name, tau, gotN, gotErr, wantN, wantErr)
					}
					checkSides(t, name, gotDst[:gotN], wantDst[:wantN], tau)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at τ=%v: account\n got %+v\nwant %+v", name, tau, got, want)
					}
					if sh.equals >= 0 && !reflect.DeepEqual(lastTier(t, got), kept[sh.equals]) {
						t.Fatalf("%s at τ=%v: entered at the last tier\n got %+v\nwant the one-tier chain's %+v", name, tau, lastTier(t, got), kept[sh.equals])
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
					if len(sh.ref) == 3 && sh.from == 0 {
						deep += got.Escalated[1]
					}
				}
			}
		}
	}
	// The table must actually reach the corners it claims to pin.
	if failures == 0 || fallthroughs == 0 || retries == 0 || deep == 0 {
		t.Fatalf("table too tame: %d failed runs, %d fallthroughs, %d retries, %d units escalated twice", failures, fallthroughs, retries, deep)
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
			n, err := chain.Score(ctx, v, c.label, 0, 0, make([]float64, 8), 0, 0, RetryConfig{Attempts: 3}, &got)
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
// plain model's batch call, not for a cascade's escalated runs (at any
// threshold), not for a fault
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
		{"cascade@0.5", ScorerOf(NewDistilledObjectCascade(teacher, DistilledRCNN, 5)), DefaultThreshold},
		{"fallible", ScorerOf(InjectObjectFaults(teacher, FaultConfig{TransientRate: 1e-12, Seed: 5})), 0},
	} {
		var acc Account
		dst := make([]float64, 500)
		score := func() {
			acc.Reset(len(c.chain.Tiers()))
			if _, err := c.chain.Score(context.Background(), v, "ghost", 0, 0, dst, c.tau, 0, RetryConfig{}, &acc); err != nil {
				t.Fatal(err)
			}
		}
		score() // warm the models' overlay caches and the account's slices
		if len(c.chain.Tiers()) > 1 && acc.Escalated[0] == 0 {
			t.Fatal("no escalations: the cascade's walk was not exercised")
		}
		if allocs := testing.AllocsPerRun(20, score); allocs != 0 {
			t.Errorf("%s: Score allocates %.0f objects per call, want 0", c.name, allocs)
		}
	}
}

// FuzzScorerMatchesReference fuzzes the walker against refScore: the fault
// seed and rates of every tier, the run's start and length, the retry
// budget, the entry tier, a chain of one, two or three tiers, objects or
// actions, and the last tier's threshold (compared by side above 0).
func FuzzScorerMatchesReference(f *testing.F) {
	v := testVideo(f, 41)
	f.Add(int64(21), 0.3, 0.0, uint16(0), uint8(40), uint8(3), uint8(0), uint8(1), true, 0.0)
	f.Add(int64(4), 0.0, 0.02, uint16(900), uint8(200), uint8(2), uint8(1), uint8(1), false, 0.0)
	f.Add(int64(7), 1.0, 0.0, uint16(77), uint8(9), uint8(1), uint8(0), uint8(0), true, 0.0)
	f.Add(int64(9), 0.1, 0.01, uint16(1200), uint8(250), uint8(3), uint8(0), uint8(2), true, DefaultThreshold)
	f.Fuzz(func(t *testing.T, seed int64, transient, permanent float64, start uint16, length, attempts, from, tiers uint8, objects bool, tau float64) {
		rate := func(p float64) float64 {
			if math.IsNaN(p) {
				return 0
			}
			return min(1, math.Abs(p))
		}
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			tau = 0
		}
		tau = math.Mod(tau, 1.5)
		fc := FaultConfig{TransientRate: rate(transient), PermanentRate: rate(permanent), Seed: seed}
		var c scorerCase
		units := v.NumFrames()
		if objects {
			teacher := NewObjectDetector(MaskRCNN, 5)
			c = objectCase("fuzz", v, InjectObjectFaults(NewDistilledObjectDetector(teacher, DistilledRCNN, 5), fc),
				InjectObjectFaults(NewObjectDetector(YOLOv3, 6), fc), InjectObjectFaults(teacher, fc))
		} else {
			teacher := NewActionRecognizer(I3D, 5)
			c = actionCase("fuzz", v, InjectActionFaults(NewDistilledActionRecognizer(teacher, DistilledI3D, 5), fc),
				InjectActionFaults(NewActionRecognizer(I3D, 6), fc), InjectActionFaults(teacher, fc))
			units = v.Geometry().NumShots(v.NumFrames())
		}
		chain, ref := []*Scorer{c.one, c.two, c.three}[tiers%3], [][]refTier{c.ref[1:], c.ref, c.ref3()}[tiers%3]
		s := int(start) % units
		n, entry, tries := min(int(length), units-s), int(from)%len(ref), 1+int(attempts)%5
		var got, want Account
		got.Reset(len(ref))
		want.Reset(len(ref))
		gotDst, wantDst := make([]float64, n), make([]float64, n)
		gotN, gotErr := chain.Score(context.Background(), v, c.label, s, entry, gotDst, tau, 0, RetryConfig{Attempts: tries}, &got)
		wantN, wantErr := refScore(context.Background(), ref, s, entry, wantDst, tries, &want)
		if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("scored %d err %v, reference %d err %v", gotN, gotErr, wantN, wantErr)
		}
		checkSides(t, "fuzz", gotDst[:gotN], wantDst[:wantN], tau)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("account\n got %+v\nwant %+v", got, want)
		}
	})
}

// scriptModel scores unit u as score(u) and fails every attempt on a unit
// for which fail(u) holds, permanently.
type scriptModel struct {
	name  string
	score func(unit int) float64
	fail  func(unit int) bool
}

func (m scriptModel) Name() string            { return m.name }
func (m scriptModel) UnitCost() time.Duration { return time.Millisecond }
func (m scriptModel) Score(_ TruthVideo, _ string, start int, dst []float64, _ float64, _ Need, _ int) (int, error) {
	for i := range dst {
		if m.fail(start + i) {
			return i, &DetectionError{Model: m.name, Unit: start + i}
		}
		dst[i] = m.score(start + i)
	}
	return len(dst), nil
}

// TestScorerStopsMidRun: a permanent last-tier failure inside a run of
// escalated units stops the walk there, in a two-tier chain and — one level
// deeper — in a three-tier chain: the scored count, error and account are the
// reference's, and no unit after the failing one is charged at any tier.
func TestScorerStopsMidRun(t *testing.T) {
	v := testVideo(t, 46)
	never := func(int) bool { return false }
	// The entry tier leaves units 5–9, 15–19, … in band and decides the rest.
	entry := scriptModel{"entry", func(u int) float64 { return float64(u / 5 % 2) }, never}
	// The middle tier decides odd units and leaves even ones in band.
	mid := scriptModel{"mid", func(u int) float64 { return []float64{0.5, 0.9}[u%2] }, never}
	for _, c := range []struct {
		name   string
		models []Model
		bands  []Band
		failAt int
	}{
		{"two-tier", []Model{entry}, []Band{{Lo: 0.5, Hi: 2}}, 17},
		{"three-tier", []Model{entry, mid}, []Band{{Lo: 0.5, Hi: 2}, midBand}, 18},
	} {
		failAt := c.failAt
		last := scriptModel{"last", func(u int) float64 { return 0.75 }, func(u int) bool { return u == failAt }}
		var tiers []TierInfo
		var ref []refTier
		for i, m := range append(c.models, last) {
			band := Band{}
			if i < len(c.bands) {
				band = c.bands[i]
			}
			tiers, ref = append(tiers, newTier(m, band, 0)), append(ref, refTierOf(m, band, v, "car"))
		}
		chain := newScorer(tiers...)
		var got, want Account
		got.Reset(len(tiers))
		want.Reset(len(tiers))
		gotDst, wantDst := make([]float64, 40), make([]float64, 40)
		gotN, gotErr := chain.Score(context.Background(), v, "car", 0, 0, gotDst, 0, 0, RetryConfig{Attempts: 3}, &got)
		wantN, wantErr := refScore(context.Background(), ref, 0, 0, wantDst, 3, &want)
		if gotN != failAt || wantN != failAt || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: scored %d (%v), reference %d (%v), want %d", c.name, gotN, gotErr, wantN, wantErr, failAt)
		}
		if !reflect.DeepEqual(gotDst[:gotN], wantDst[:wantN]) {
			t.Fatalf("%s: scores diverge from the reference", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: account\n got %+v\nwant %+v", c.name, got, want)
		}
		if got.Units[0] != int64(failAt+1) {
			t.Fatalf("%s: %d units charged at the entry tier, want the %d up to the failing one", c.name, got.Units[0], failAt+1)
		}
	}
}

// countingModel counts a model's Score invocations.
type countingModel struct {
	Model
	calls int
}

func (m *countingModel) Score(v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	m.calls++
	return m.Model.Score(v, label, start, dst, tau, need, attempt)
}

// tauRecorder records every threshold its model is scored at.
type tauRecorder struct {
	Model
	taus []float64
}

func (m *tauRecorder) Score(v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	m.taus = append(m.taus, tau)
	return m.Model.Score(v, label, start, dst, tau, need, attempt)
}

// TestTierThresholds pins the threshold each tier of a chain is scored at,
// through the walker and through decide: a tier below the last whose band
// is [Lo, above 1) gets Lo when the atom's τ ≥ Lo, and 0 at τ = 0, at τ
// under Lo and for any other band (midBand, or one ending at the ceiling);
// the last tier gets the atom's τ. Every tier leaves every unit in band, so
// each is reached.
func TestTierThresholds(t *testing.T) {
	v := testVideo(t, 47)
	never := func(int) bool { return false }
	lo := RecallBand().Lo
	ceiling := Band{Lo: lo, Hi: 1}
	for _, c := range []struct {
		name  string
		bands []Band // of the tiers below the last
		tau   float64
		want  []float64 // per tier, the last included
	}{
		{"recall@0", []Band{RecallBand()}, 0, []float64{0, 0}},
		{"recall@below-Lo", []Band{RecallBand()}, 0.003, []float64{0, 0.003}},
		{"recall@Lo", []Band{RecallBand()}, lo, []float64{lo, lo}},
		{"recall@0.5", []Band{RecallBand()}, DefaultThreshold, []float64{lo, DefaultThreshold}},
		{"recall@1.25", []Band{RecallBand()}, 1.25, []float64{lo, 1.25}},
		{"ceiling-band@0.5", []Band{ceiling}, DefaultThreshold, []float64{0, DefaultThreshold}},
		{"three-tier@0", []Band{RecallBand(), midBand}, 0, []float64{0, 0, 0}},
		{"three-tier@below-Lo", []Band{RecallBand(), midBand}, 0.003, []float64{0, 0, 0.003}},
		{"three-tier@0.5", []Band{RecallBand(), midBand}, DefaultThreshold, []float64{lo, 0, DefaultThreshold}},
	} {
		var recs []*tauRecorder
		var tiers []TierInfo
		for i := 0; i <= len(c.bands); i++ {
			band := Band{}
			if i < len(c.bands) {
				band = c.bands[i]
			}
			rec := &tauRecorder{Model: scriptModel{fmt.Sprint("tier", i), func(int) float64 { return 0.5 }, never}}
			recs, tiers = append(recs, rec), append(tiers, newTier(rec, band, 0))
		}
		chain := newScorer(tiers...)
		check := func(path string) {
			t.Helper()
			for i, rec := range recs {
				if len(rec.taus) == 0 {
					t.Fatalf("%s via %s: tier %d never scored", c.name, path, i)
				}
				for _, tau := range rec.taus {
					if tau != c.want[i] {
						t.Fatalf("%s via %s: tier %d scored at τ=%v, want %v", c.name, path, i, tau, c.want[i])
					}
				}
				rec.taus = rec.taus[:0]
			}
		}
		var acc Account
		acc.Reset(len(tiers))
		if _, err := chain.Score(context.Background(), v, "car", 0, 0, make([]float64, 8), c.tau, 0, RetryConfig{}, &acc); err != nil {
			t.Fatal(err)
		}
		check("the walker")
		if _, err := (cascade{chain}).Score(v, "car", 0, make([]float64, 8), c.tau, Need{}, 0); err != nil {
			t.Fatal(err)
		}
		check("decide")
	}
}

// TestCascadeEscalatesRuns: the walker escalates a run of in-band units in
// one batch, not unit by unit. On clips where a car is present throughout,
// the proxy passes nearly every frame up, yet the teacher is invoked fewer
// times than there are escalated frames.
func TestCascadeEscalatesRuns(t *testing.T) {
	v := testVideo(t, 33)
	teacher := NewObjectDetector(MaskRCNN, 5)
	counted := &countingModel{Model: teacher}
	chain := newScorer(newTier(NewDistilledObjectDetector(teacher, DistilledRCNN, 5), RecallBand(), 0), newTier(counted, Band{}, 0))
	clips := 0
	for _, app := range v.ObjectAppearances("car") {
		if app.Frames.Len() < 50 {
			continue
		}
		clips++
		var acc Account
		acc.Reset(2)
		dst := make([]float64, 50)
		counted.calls = 0
		if _, err := chain.Score(context.Background(), v, "car", app.Frames.Start, 0, dst, DefaultThreshold, 0, RetryConfig{}, &acc); err != nil {
			t.Fatal(err)
		}
		if acc.Escalated[0] < 10 {
			t.Fatalf("clip at %d: only %d frames escalated", app.Frames.Start, acc.Escalated[0])
		}
		if int64(counted.calls) >= acc.Escalated[0] {
			t.Errorf("clip at %d: the teacher was invoked %d times for %d escalated frames", app.Frames.Start, counted.calls, acc.Escalated[0])
		}
		for i, s := range dst {
			if want := teacher.FrameScore(v, "car", app.Frames.Start+i); !sameSide(s, want, DefaultThreshold) {
				t.Fatalf("clip at %d frame %d: %v, teacher %v", app.Frames.Start, i, s, want)
			}
		}
	}
	if clips == 0 {
		t.Fatal("no car appearance spans a clip")
	}
}
