package detect

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// refDecide is the decision stop's referee, built on refScore alone: score
// the whole run per unit, find the first unit before which need is decided
// from those final scores — need of them reach tau, or too few units are
// left for them to — and charge refScore's per-unit walk over exactly the
// units before it. A failure that comes first stops the run as refScore
// does. need ≤ 0 is the full scan.
func refDecide(tiers []refTier, start, from int, dst []float64, attempts, need int, tau float64, acc *Account) (int, error) {
	full := make([]float64, len(dst))
	var fullAcc Account
	fullAcc.Reset(len(tiers))
	n, err := refScore(context.Background(), tiers, start, from, full, attempts, &fullAcc)
	stop := -1
	for i, pos := 0, 0; need > 0 && i <= n; i++ {
		if pos >= need || pos+len(dst)-i < need {
			stop = i
			break
		}
		if i < n && full[i] >= tau {
			pos++
		}
	}
	if stop < 0 {
		copy(dst, full[:n])
		*acc = fullAcc
		return n, err
	}
	return refScore(context.Background(), tiers, start, from, dst[:stop], attempts, acc)
}

// FuzzDecisionStopMatchesFullScan: a Score call given a need returns the
// full-scan referee's scores (by side above τ = 0) on exactly the prefix
// before the first unit at which the decision is fixed, and an account
// equal to per-unit charging of that prefix at every tier — over fuzzed
// one-, two- and three-tier chains, entry tiers, thresholds, needs (from
// none to more than the run holds), retry budgets and transient and
// permanent faults. A cascade stops where its last tier alone would: only
// final scores count.
func FuzzDecisionStopMatchesFullScan(f *testing.F) {
	v := testVideo(f, 41)
	f.Add(int64(21), 0.3, 0.0, uint16(0), uint8(40), uint8(3), uint8(0), uint8(1), true, DefaultThreshold, uint8(3))
	f.Add(int64(4), 0.0, 0.02, uint16(900), uint8(200), uint8(2), uint8(1), uint8(1), false, DefaultThreshold, uint8(5))
	f.Add(int64(7), 0.0, 0.0, uint16(77), uint8(30), uint8(1), uint8(0), uint8(0), true, DefaultThreshold, uint8(31))
	f.Add(int64(9), 0.1, 0.01, uint16(1200), uint8(250), uint8(3), uint8(0), uint8(2), true, DefaultThreshold, uint8(2))
	f.Add(int64(11), 0.0, 0.05, uint16(300), uint8(120), uint8(2), uint8(0), uint8(1), true, DefaultThreshold, uint8(1))
	f.Add(int64(13), 0.2, 0.0, uint16(40), uint8(60), uint8(4), uint8(2), uint8(2), false, 0.0, uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, transient, permanent float64, start uint16, length, attempts, from, tiers uint8, objects bool, tau float64, need uint8) {
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
		k := int(need) % (n + 2) // 0 scans in full, n+1 can never be met
		var got, want Account
		got.Reset(len(ref))
		want.Reset(len(ref))
		gotDst, wantDst := make([]float64, n), make([]float64, n)
		gotN, gotErr := chain.Score(context.Background(), v, c.label, s, entry, gotDst, tau, k, RetryConfig{Attempts: tries}, &got)
		wantN, wantErr := refDecide(ref, s, entry, wantDst, tries, k, tau, &want)
		if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("need %d of %d: scored %d err %v, reference %d err %v", k, n, gotN, gotErr, wantN, wantErr)
		}
		checkSides(t, "fuzz", gotDst[:gotN], wantDst[:wantN], tau)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("need %d of %d: account\n got %+v\nwant %+v", k, n, got, want)
		}
	})
}

// TestModelsStopAtTheDecision is the Model contract's stop, model by model:
// given a Need, every model — simulated, distilled, fault-injected (a
// permanent fault past the decision included) and a cascade invoked as a
// model — returns the units before the first one at which the Need is
// decided from its own full scan's scores, with no error, or the full
// scan's count and error when it is not decided before a failure.
func TestModelsStopAtTheDecision(t *testing.T) {
	v := testVideo(t, 44)
	fc := FaultConfig{PermanentRate: 0.01, Seed: 8}
	teacher, actor := NewObjectDetector(MaskRCNN, 5), NewActionRecognizer(I3D, 5)
	models := []struct {
		name, label string
		m           Model
	}{
		{"sim-object", "car", teacher},
		{"sim-action", "jumping", actor},
		{"distilled-object", "car", NewDistilledObjectDetector(teacher, DistilledRCNN, 5)},
		{"distilled-action", "jumping", NewDistilledActionRecognizer(actor, DistilledI3D, 5)},
		{"faulty-object", "car", InjectObjectFaults(teacher, fc)},
		{"faulty-action", "jumping", InjectActionFaults(actor, fc)},
		{"cascade", "human", NewDistilledObjectCascade(InjectObjectFaults(teacher, fc), DistilledRCNN, 5)},
	}
	const run = 30
	stops, spared := 0, 0
	for _, c := range models {
		for start := 0; start < 40*run; start += run {
			for _, tau := range []float64{0, DefaultThreshold} {
				full := make([]float64, run)
				fullN, fullErr := c.m.Score(v, c.label, start, full, tau, Need{}, 0)
				for count := 1; count <= run+1; count += 3 {
					for _, beyond := range []int{0, 5} {
						wantN, wantErr := fullN, fullErr
						for i, pos := 0, 0; i <= fullN; i++ {
							if pos >= count || pos+run-i+beyond < count {
								wantN, wantErr = i, nil
								break
							}
							if i < fullN && full[i] >= tau {
								pos++
							}
						}
						need := Need{Count: count, Beyond: beyond}
						dst := make([]float64, run)
						n, err := c.m.Score(v, c.label, start, dst, tau, need, 0)
						if n != wantN || !reflect.DeepEqual(err, wantErr) {
							t.Fatalf("%s units %d+%d at τ=%v, %+v: scored %d err %v, want %d err %v", c.name, start, run, tau, need, n, err, wantN, wantErr)
						}
						checkSides(t, c.name, dst[:n], full[:n], tau)
						if n < run && wantErr == nil {
							stops++
						}
						if fullErr != nil && wantErr == nil {
							spared++
						}
					}
				}
			}
		}
	}
	if stops == 0 || spared == 0 {
		t.Fatalf("%d stops, %d faults past the decision: the table pins too little", stops, spared)
	}
}

// TestWalkStopsWithoutTheModel: the walk finds the decision itself, so a
// model that ignores its Need and scores every unit it is given still stops
// the run at the referee's unit with the referee's account — as a one-tier
// chain and as every tier of a two-tier one, with permanent failures on
// either side of the decision.
func TestWalkStopsWithoutTheModel(t *testing.T) {
	v := testVideo(t, 47)
	fails := func(u int) bool { return u%41 == 13 }
	// The entry tier leaves units 4–7, 12–15, … in band; the last tier
	// scores every third unit positive.
	entry := scriptModel{"entry", func(u int) float64 { return float64(u / 4 % 2) }, fails}
	last := scriptModel{"last", func(u int) float64 { return []float64{0.9, 0.2, 0.1}[u%3] }, fails}
	band := Band{Lo: 0.5, Hi: 2}
	for _, c := range []struct {
		name  string
		chain *Scorer
		ref   []refTier
	}{
		{"one-tier", newScorer(newTier(last, Band{}, 0)), []refTier{refTierOf(last, Band{}, v, "car")}},
		{"two-tier", newScorer(newTier(entry, band, 0), newTier(last, Band{}, 0)), []refTier{refTierOf(entry, band, v, "car"), refTierOf(last, Band{}, v, "car")}},
	} {
		stops := 0
		for start := 0; start < 400; start += 23 {
			for need := 1; need <= 31; need += 2 {
				var got, want Account
				got.Reset(len(c.ref))
				want.Reset(len(c.ref))
				gotDst, wantDst := make([]float64, 30), make([]float64, 30)
				gotN, gotErr := c.chain.Score(context.Background(), v, "car", start, 0, gotDst, DefaultThreshold, need, RetryConfig{Attempts: 2}, &got)
				wantN, wantErr := refDecide(c.ref, start, 0, wantDst, 2, need, DefaultThreshold, &want)
				if gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("%s from %d, need %d: scored %d err %v, reference %d err %v", c.name, start, need, gotN, gotErr, wantN, wantErr)
				}
				if !reflect.DeepEqual(gotDst[:gotN], wantDst[:wantN]) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s from %d, need %d: account\n got %+v\nwant %+v", c.name, start, need, got, want)
				}
				if gotErr == nil && gotN < 30 {
					stops++
				}
			}
		}
		if stops == 0 {
			t.Fatalf("%s: no run stopped at its decision", c.name)
		}
	}
}
