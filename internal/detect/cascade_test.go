package detect

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"svqact/internal/video"
)

// TestDistilledRecallComplete pins the property the cascade's soundness
// argument rests on: the proxy's score equals the teacher's wherever the
// teacher detects anything, and is ≥ 0 (its own false-positive draw)
// elsewhere — so the proxy never scores below the teacher on any unit.
func TestDistilledRecallComplete(t *testing.T) {
	v := testVideo(t, 31)
	teacher := NewObjectDetector(MaskRCNN, 7)
	proxy := NewDistilledObjectDetector(teacher, DistilledRCNN, 7)
	for f := 0; f < v.NumFrames(); f++ {
		ts := teacher.FrameScore(v, "car", f)
		ps := proxy.FrameScore(v, "car", f)
		if ps < ts {
			t.Fatalf("frame %d: proxy score %v below teacher %v", f, ps, ts)
		}
		if ts > 0 && ps != ts {
			t.Fatalf("frame %d: teacher detected (%v) but proxy returned %v", f, ts, ps)
		}
	}
	art := NewActionRecognizer(I3D, 7)
	arp := NewDistilledActionRecognizer(art, DistilledI3D, 7)
	numShots := v.Geometry().NumShots(v.NumFrames())
	for s := 0; s < numShots; s++ {
		ts := unitScore(art, v, "jumping", s)
		ps := unitScore(arp, v, "jumping", s)
		if ps < ts {
			t.Fatalf("shot %d: proxy score %v below teacher %v", s, ps, ts)
		}
		if ts > 0 && ps != ts {
			t.Fatalf("shot %d: teacher detected (%v) but proxy returned %v", s, ts, ps)
		}
	}
}

// TestCascadeBitIdenticalToAccurate: under the recall band, the cascade's
// outputs (scores, detections, events) are bit-identical to running the
// accurate tier alone.
func TestCascadeBitIdenticalToAccurate(t *testing.T) {
	v := testVideo(t, 32)
	teacher := NewObjectDetector(MaskRCNN, 9)
	casc := NewDistilledObjectCascade(teacher, DistilledRCNN, 9)
	var evC, evT Events
	for f := 0; f < v.NumFrames(); f++ {
		if cs, ts := casc.FrameScore(v, "car", f), teacher.FrameScore(v, "car", f); cs != ts {
			t.Fatalf("frame %d: cascade score %v != accurate %v", f, cs, ts)
		}
		cd, td := frameDetections(casc, v, "car", f), frameDetections(teacher, v, "car", f)
		if len(cd) != len(td) {
			t.Fatalf("frame %d: %d cascade detections vs %d accurate", f, len(cd), len(td))
		}
		for i := range cd {
			if cd[i] != td[i] {
				t.Fatalf("frame %d: detection %d differs: %+v vs %+v", f, i, cd[i], td[i])
			}
		}
		teacher.Events(v, "car", video.Interval{Start: f, End: f}, &evT, 0)
	}
	// The cascade's events over the whole video in one range, against the
	// teacher's frame by frame.
	casc.Events(v, "car", video.Interval{Start: 0, End: v.NumFrames() - 1}, &evC, 0)
	if evC.Len() != evT.Len() {
		t.Fatalf("event streams diverge: %d vs %d", evC.Len(), evT.Len())
	}
	for i := range evC.Scores {
		if evC.Scores[i] != evT.Scores[i] || evC.Units[i] != evT.Units[i] || evC.Tracks[i] != evT.Tracks[i] {
			t.Fatalf("event %d differs", i)
		}
	}

	art := NewActionRecognizer(I3D, 9)
	acasc := NewDistilledActionCascade(art, DistilledI3D, 9)
	numShots := v.Geometry().NumShots(v.NumFrames())
	for s := 0; s < numShots; s++ {
		if cs, ts := unitScore(acasc, v, "jumping", s), unitScore(art, v, "jumping", s); cs != ts {
			t.Fatalf("shot %d: cascade score %v != accurate %v", s, cs, ts)
		}
	}
}

// TestFrameScoreCascadeAccounting runs the tier-aware batch path over the
// video and checks the scores match the plain contract and the account's
// invariants hold: every unit is scored at the entry tier, each is either
// decided or escalated there, exactly the escalated units reach tier 1, and
// the cost is the per-tier unit-cost weighted sum.
func TestFrameScoreCascadeAccounting(t *testing.T) {
	v := testVideo(t, 33)
	teacher := NewObjectDetector(MaskRCNN, 5)
	casc := NewDistilledObjectCascade(teacher, DistilledRCNN, 5)
	ctx := context.Background()
	var acc Account
	acc.Reset(2)
	n := 2000
	dst := make([]float64, n)
	if _, err := ScorerOf(casc).Score(ctx, v, "car", 0, 0, dst, 0, 0, DefaultRetryConfig(), &acc); err != nil {
		t.Fatal(err)
	}
	for i, s := range dst {
		if want := teacher.FrameScore(v, "car", i); s != want {
			t.Fatalf("frame %d: cascade path %v != accurate %v", i, s, want)
		}
	}
	if acc.Units[0] != int64(n) {
		t.Errorf("entry tier scored %d units, want %d", acc.Units[0], n)
	}
	if acc.Decided[0]+acc.Escalated[0] != acc.Units[0] {
		t.Errorf("tier 0: decided %d + escalated %d != units %d", acc.Decided[0], acc.Escalated[0], acc.Units[0])
	}
	if acc.Units[1] != acc.Escalated[0] {
		t.Errorf("tier 1 scored %d units, want the %d escalated", acc.Units[1], acc.Escalated[0])
	}
	if acc.Escalated[0] == 0 || acc.Escalated[0] == int64(n) {
		t.Errorf("escalations %d should be strictly between 0 and %d", acc.Escalated[0], n)
	}
	infos := ScorerOf(casc).Tiers()
	want := time.Duration(acc.Units[0])*infos[0].UnitCost + time.Duration(acc.Units[1])*infos[1].UnitCost
	if acc.Cost != want {
		t.Errorf("cost %v, want %v (faultless run: attempts == units)", acc.Cost, want)
	}
	if acc.Cost >= time.Duration(n)*infos[1].UnitCost {
		t.Errorf("cascade cost %v not below accurate-only %v", acc.Cost, time.Duration(n)*infos[1].UnitCost)
	}

	// Entering at the accurate tier skips tier 0 entirely.
	acc.Reset(2)
	if _, err := ScorerOf(casc).Score(ctx, v, "car", 0, 1, dst, 0, 0, DefaultRetryConfig(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Units[0] != 0 || acc.Units[1] != int64(n) {
		t.Errorf("accurate entry: units %v, want [0 %d]", acc.Units, n)
	}
	for i, s := range dst {
		if want := teacher.FrameScore(v, "car", i); s != want {
			t.Fatalf("accurate entry frame %d: %v != %v", i, s, want)
		}
	}
}

// failingObjectDetector always fails (transiently or permanently) — used to
// exercise per-tier fallthrough and last-tier error surfacing.
type failingObjectDetector struct {
	name      string
	transient bool
}

func (d failingObjectDetector) Name() string                               { return d.name }
func (d failingObjectDetector) UnitCost() time.Duration                    { return time.Millisecond }
func (d failingObjectDetector) FrameScore(TruthVideo, string, int) float64 { return 0 }
func (d failingObjectDetector) Score(_ TruthVideo, _ string, start int, _ []float64, _ float64, _ Need, _ int) (int, error) {
	return 0, &DetectionError{Model: d.name, Unit: start, Transient: d.transient}
}
func (d failingObjectDetector) Events(_ TruthVideo, _ string, frames video.Interval, _ *Events, _ int) (int, error) {
	return 0, &DetectionError{Model: d.name, Unit: frames.Start, Transient: d.transient}
}

// TestCascadeFallthroughOnTierFailure: a failed non-last tier escalates
// conservatively instead of failing the unit, with the fallthrough counted;
// a failed last tier surfaces the error.
func TestCascadeFallthroughOnTierFailure(t *testing.T) {
	v := testVideo(t, 34)
	teacher := NewObjectDetector(MaskRCNN, 5)
	casc := NewObjectCascade(
		ObjectTier{Detector: failingObjectDetector{name: "dead-proxy", transient: true}, Band: RecallBand()},
		ObjectTier{Detector: teacher},
	)
	ctx := context.Background()
	var acc Account
	acc.Reset(2)
	n := 64
	dst := make([]float64, n)
	retry := RetryConfig{Attempts: 2}
	if _, err := ScorerOf(casc).Score(ctx, v, "car", 0, 0, dst, 0, 0, retry, &acc); err != nil {
		t.Fatalf("dead entry tier must fall through, got error: %v", err)
	}
	for i, s := range dst {
		if want := teacher.FrameScore(v, "car", i); s != want {
			t.Fatalf("frame %d after fallthrough: %v != accurate %v", i, s, want)
		}
	}
	if acc.Fallthroughs[0] != int64(n) {
		t.Errorf("fallthroughs[0] = %d, want %d", acc.Fallthroughs[0], n)
	}
	if acc.Escalated[0] != int64(n) || acc.Decided[1] != int64(n) {
		t.Errorf("escalated[0]=%d decided[1]=%d, want both %d", acc.Escalated[0], acc.Decided[1], n)
	}
	// Each transient-failing attempt is priced: the 2-attempt retry budget
	// is spent per unit before the tier falls through.
	if want := time.Duration(2*n)*time.Millisecond + time.Duration(n)*teacher.UnitCost(); acc.Cost != want {
		t.Errorf("cost %v, want %v (per-attempt pricing)", acc.Cost, want)
	}

	// A permanently failing last tier surfaces the error.
	bad := NewObjectCascade(
		ObjectTier{Detector: failingObjectDetector{name: "dead-proxy"}, Band: RecallBand()},
		ObjectTier{Detector: failingObjectDetector{name: "dead-teacher"}},
	)
	acc.Reset(2)
	_, err := ScorerOf(bad).Score(ctx, v, "car", 0, 0, dst, 0, 0, retry, &acc)
	var de *DetectionError
	if !errors.As(err, &de) || de.Model != "dead-teacher" {
		t.Fatalf("want dead-teacher DetectionError from last tier, got %v", err)
	}

	// Context cancellation aborts instead of falling through.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScorerOf(casc).Score(cctx, v, "car", 0, 0, dst, 0, 0, retry, &acc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: want context.Canceled, got %v", err)
	}
}

// TestCascadePerTierFaults: each tier composes its own fault decorator and
// retry budget; transient faults on the cheap tier retry within the tier and
// the final scores stay identical to the faultless accurate run.
func TestCascadePerTierFaults(t *testing.T) {
	v := testVideo(t, 35)
	teacher := NewObjectDetector(MaskRCNN, 5)
	proxy := NewDistilledObjectDetector(teacher, DistilledRCNN, 5)
	flakyProxy := InjectObjectFaults(proxy, FaultConfig{TransientRate: 0.3, Seed: 21})
	casc := NewObjectCascade(
		ObjectTier{Detector: flakyProxy, Band: RecallBand()},
		ObjectTier{Detector: teacher},
	)
	var acc Account
	acc.Reset(2)
	n := 1000
	dst := make([]float64, n)
	retry := RetryConfig{Attempts: 8}
	if _, err := ScorerOf(casc).Score(context.Background(), v, "car", 0, 0, dst, 0, 0, retry, &acc); err != nil {
		t.Fatal(err)
	}
	for i, s := range dst {
		if want := teacher.FrameScore(v, "car", i); s != want {
			t.Fatalf("frame %d under tier-0 faults: %v != accurate %v", i, s, want)
		}
	}
	// A 30% transient rate must have cost extra attempts on tier 0 (priced),
	// but no unit may have fallen through with an 8-attempt budget.
	infos := ScorerOf(casc).Tiers()
	faultless := time.Duration(acc.Units[0])*infos[0].UnitCost + time.Duration(acc.Units[1])*infos[1].UnitCost
	if acc.Cost <= faultless {
		t.Errorf("cost %v should exceed faultless %v (retried attempts are priced)", acc.Cost, faultless)
	}
	if acc.Fallthroughs[0] != 0 {
		t.Errorf("%d fallthroughs under a generous retry budget", acc.Fallthroughs[0])
	}
}

// TestCascadeDeterminism: same construction, same draws — tier-aware and
// plain paths agree run to run.
func TestCascadeDeterminism(t *testing.T) {
	v := testVideo(t, 36)
	mk := func() *ObjectCascade {
		return NewDistilledObjectCascade(NewObjectDetector(MaskRCNN, 11), DistilledRCNN, 11)
	}
	a, b := mk(), mk()
	for f := 0; f < 3000; f++ {
		if a.FrameScore(v, "car", f) != b.FrameScore(v, "car", f) {
			t.Fatalf("frame %d: identical cascades disagree", f)
		}
	}
}

// TestCascadeTierInfos pins the planner-facing tier metadata: cheapest
// first, last tier never escalates, and the conservative UnitCost is the
// accurate tier's.
func TestCascadeTierInfos(t *testing.T) {
	teacher := NewObjectDetector(MaskRCNN, 1)
	casc := NewDistilledObjectCascade(teacher, DistilledRCNN, 1)
	infos := ScorerOf(casc).Tiers()
	if len(infos) != 2 {
		t.Fatalf("want 2 tiers, got %d", len(infos))
	}
	if infos[0].UnitCost >= infos[1].UnitCost {
		t.Errorf("tier order not cheapest-first: %v then %v", infos[0].UnitCost, infos[1].UnitCost)
	}
	if infos[0].PriorEscalate <= 0 || infos[0].PriorEscalate >= 1 {
		t.Errorf("entry tier escalation prior %v outside (0,1)", infos[0].PriorEscalate)
	}
	if infos[1].PriorEscalate != 0 {
		t.Errorf("last tier must not escalate, prior %v", infos[1].PriorEscalate)
	}
	if casc.UnitCost() != teacher.UnitCost() {
		t.Errorf("cascade UnitCost %v, want accurate tier's %v", casc.UnitCost(), teacher.UnitCost())
	}
	if ScorerOf(casc) != ScorerOf(casc) {
		t.Error("ScorerOf(cascade) must return the cascade's own chain")
	}
	if got := ScorerOf(teacher).Tiers(); len(got) != 1 || got[0].Name != teacher.Name() || got[0].UnitCost != teacher.UnitCost() {
		t.Errorf("a plain model must be a one-tier chain of itself, got %v", got)
	}
}

// EffectiveTPR is the probability a truly present unit yields a score ≥
// threshold: the detection rate times the true-positive score tail.
func (p Profile) EffectiveTPR(threshold float64) float64 {
	return p.TPR * scoreTail(threshold, p.TPScoreMean, p.TPScoreStd)
}

// EffectiveFPR is the steady-state probability an absent unit yields a score
// ≥ threshold: the hallucination rate times the false-positive score tail.
func (p Profile) EffectiveFPR(threshold float64) float64 {
	return p.fpUnitRate() * scoreTail(threshold, p.FPScoreMean, p.FPScoreStd)
}

// TestProfileCalibrationInvariants checks every calibrated profile is
// internally coherent: at the operating threshold each tier separates truth
// from noise (effective TPR strictly above effective FPR), true-detection
// scores dominate hallucinated ones, and cascade-tier profiles price below
// their teachers while escalating a nontrivial-but-bounded fraction.
func TestProfileCalibrationInvariants(t *testing.T) {
	const threshold = 0.5
	for _, p := range []Profile{MaskRCNN, YOLOv3, I3D, DistilledRCNN, DistilledI3D} {
		tpr, fpr := p.EffectiveTPR(threshold), p.EffectiveFPR(threshold)
		if tpr <= fpr {
			t.Errorf("%s: effective TPR %v not above effective FPR %v at %v", p.Name, tpr, fpr, threshold)
		}
		if tpr <= 0 || tpr > p.TPR {
			t.Errorf("%s: effective TPR %v outside (0, %v]", p.Name, tpr, p.TPR)
		}
		if fpr < 0 || fpr >= 0.2 {
			t.Errorf("%s: effective FPR %v outside [0, 0.2)", p.Name, fpr)
		}
		if p.TPScoreMean <= p.FPScoreMean {
			t.Errorf("%s: TP score mean %v not above FP score mean %v", p.Name, p.TPScoreMean, p.FPScoreMean)
		}
		// EffectiveTPR must be monotone non-increasing in the threshold.
		prev := p.EffectiveTPR(0)
		for _, th := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			cur := p.EffectiveTPR(th)
			if cur > prev+1e-12 {
				t.Errorf("%s: EffectiveTPR not monotone at %v: %v > %v", p.Name, th, cur, prev)
			}
			prev = cur
		}
	}
	for _, pair := range [][2]Profile{{DistilledRCNN, MaskRCNN}, {DistilledI3D, I3D}} {
		student, tchr := pair[0], pair[1]
		if student.UnitCost >= tchr.UnitCost {
			t.Errorf("%s: unit cost %v not below teacher %s's %v", student.Name, student.UnitCost, tchr.Name, tchr.UnitCost)
		}
		prior := student.EscalationPrior(RecallBand())
		if prior <= 0 || prior >= 0.5 {
			t.Errorf("%s: recall-band escalation prior %v outside (0, 0.5)", student.Name, prior)
		}
	}
}

// TestDistilledDeterminism: same (teacher, profile, seed) → identical
// draws; a different seed must change the false-positive overlay.
func TestDistilledDeterminism(t *testing.T) {
	v := testVideo(t, 37)
	teacher := NewObjectDetector(MaskRCNN, 2)
	a := NewDistilledObjectDetector(teacher, DistilledRCNN, 13)
	b := NewDistilledObjectDetector(teacher, DistilledRCNN, 13)
	c := NewDistilledObjectDetector(teacher, DistilledRCNN, 14)
	same := true
	for f := 0; f < v.NumFrames(); f += 7 {
		if a.FrameScore(v, "car", f) != b.FrameScore(v, "car", f) {
			t.Fatalf("frame %d: same seed disagrees", f)
		}
		if a.FrameScore(v, "car", f) != c.FrameScore(v, "car", f) {
			same = false
		}
	}
	if same {
		t.Error("different proxy seeds produced identical draws")
	}
	// The batch path must agree bit-for-bit with the scalar path.
	n := 4096
	dst := make([]float64, n)
	a.Score(v, "car", 0, dst, 0, Need{}, 0)
	for i, s := range dst {
		if want := b.FrameScore(v, "car", i); s != want {
			t.Fatalf("frame %d: batch %v != scalar %v", i, s, want)
		}
	}
}

// TestCascadeBelowRecallBand: a teacher whose detections often score in
// (0, Lo) — clampScore passes samples in (0, scoreFloor) through — leaves
// those units to the proxy, which decides them with the teacher's exact
// score, so the cascade's scores and events are still the teacher's.
func TestCascadeBelowRecallBand(t *testing.T) {
	v := testVideo(t, 38)
	faint := Profile{
		Name: "faint", TPR: 0.9, TPScoreMean: 0.004, TPScoreStd: 0.004,
		FPIID: 0.05, FPScoreMean: 0.004, FPScoreStd: 0.004, UnitCost: 45 * time.Millisecond,
	}
	teacher := NewObjectDetector(faint, 3)
	casc := NewDistilledObjectCascade(teacher, DistilledRCNN, 3)
	n := v.NumFrames()
	want, got := make([]float64, n), make([]float64, n)
	teacher.Score(v, "car", 0, want, 0, Need{}, 0)
	var acc Account
	acc.Reset(2)
	if _, err := ScorerOf(casc).Score(context.Background(), v, "car", 0, 0, got, 0, 0, RetryConfig{}, &acc); err != nil {
		t.Fatal(err)
	}
	below, detected := 0, int64(0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: cascade %v, teacher %v", i, got[i], want[i])
		}
		if want[i] > 0 {
			detected++
			if want[i] < RecallBand().Lo {
				below++
			}
		}
	}
	if below == 0 || acc.Units[1] >= detected {
		t.Fatalf("%d teacher detections under Lo, %d of %d detections escalated: the corner is not exercised", below, acc.Units[1], detected)
	}
	casc.Score(v, "car", 0, got, 0, Need{}, 0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: cascade as a model %v, teacher %v", i, got[i], want[i])
		}
	}
	var evC, evT Events
	casc.Events(v, "car", video.Interval{Start: 0, End: n - 1}, &evC, 0)
	teacher.Events(v, "car", video.Interval{Start: 0, End: n - 1}, &evT, 0)
	if !reflect.DeepEqual(evC, evT) {
		t.Fatal("the cascade's events differ from the teacher's")
	}
}

// TestAccountResetZeroesEveryField: Reset zeroes an account in place. Every
// field is set non-zero by reflection first, so a field added to Account
// that Reset misses fails here; the per-tier slices come back at the new
// length, on their old backing arrays when those are large enough.
func TestAccountResetZeroesEveryField(t *testing.T) {
	for _, tiers := range []int{1, 2, 3, 5} {
		var a Account
		v := reflect.ValueOf(&a).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				s := reflect.MakeSlice(f.Type(), 3, 3)
				for j := 0; j < 3; j++ {
					s.Index(j).SetInt(int64(j + 1))
				}
				f.Set(s)
			case reflect.Int64:
				f.SetInt(7)
			default:
				t.Fatalf("Account.%s has kind %s, which this test does not set", v.Type().Field(i).Name, f.Kind())
			}
		}
		before := make([]uintptr, v.NumField())
		for i := range before {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				before[i] = f.Pointer()
			}
		}
		a.Reset(tiers)
		for i := 0; i < v.NumField(); i++ {
			name, f := v.Type().Field(i).Name, v.Field(i)
			if f.Kind() != reflect.Slice {
				if !f.IsZero() {
					t.Errorf("tiers=%d: Reset left %s = %v", tiers, name, f.Interface())
				}
				continue
			}
			if f.Len() != tiers {
				t.Errorf("tiers=%d: Reset left %s with length %d", tiers, name, f.Len())
			}
			for j := 0; j < f.Len(); j++ {
				if f.Index(j).Int() != 0 {
					t.Errorf("tiers=%d: Reset left %s[%d] = %d", tiers, name, j, f.Index(j).Int())
				}
			}
			if reused := f.Pointer() == before[i]; reused != (tiers <= 3) {
				t.Errorf("tiers=%d: %s reused its backing array: %v, want %v", tiers, name, reused, tiers <= 3)
			}
		}
	}
}
