package detect

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// The threshold rule before it became one function (decidable): the three
// places that each encoded part of it, kept verbatim as the referee.

// refTauAt is the threshold tier ti scores at.
func refTauAt(s *Scorer, ti int, tau float64) float64 {
	if ti == len(s.tiers)-1 {
		return tau
	}
	if b := s.tiers[ti].band; b.Lo > 0 && b.Lo <= tau && b.Hi > 1 {
		return b.Lo
	}
	return 0
}

// refTeacherTau is the threshold a proxy scoring at tau passes its teacher.
func refTeacherTau(tau float64) float64 {
	if tau > scoreFloor {
		return 0
	}
	return tau
}

// refNewCutoff is the radius bound of a profile's score distribution at τ.
func refNewCutoff(mean, std, tau float64) cutoff {
	if !(tau > 0 && tau <= 1 && std > 0) || tau <= scoreFloor && mean <= tau {
		return never
	}
	r := (math.Abs(tau-mean)*(1-1e-9) - 1e-15*(1+math.Abs(mean))) / std
	if !(r >= 1e-3) {
		return never
	}
	return cutoff{u1: math.Exp(-r * r / 2), above: mean > tau, ready: true}
}

// teacherRecorder records the thresholds its object detector is scored at.
type teacherRecorder struct {
	ObjectDetector
	taus []float64
}

func (m *teacherRecorder) Score(v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	m.taus = append(m.taus, tau)
	return m.ObjectDetector.Score(v, label, start, dst, tau, need, attempt)
}

// sameFloat compares bit patterns, so NaN matches NaN and 0 does not
// match -0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestThresholdRuleMatchesReference: over thresholds from below 0 through
// the clamp floor and the band edge to above the ceiling and NaN, and over
// a one-tier chain, RecallBand, a band ending at the ceiling and three
// tiers, every tier receives the referee's τ (through the walker, through
// decide and from tauAt), a distilled proxy at that τ gives its object and
// action teachers the referee's τ, and the radius bound at every τ received
// is the referee's for the shipped profiles' score distributions and a grid
// of means and spreads around the clamp range.
func TestThresholdRuleMatchesReference(t *testing.T) {
	v := testVideo(t, 47)
	lo := RecallBand().Lo
	taus := []float64{
		-1, 0, math.SmallestNonzeroFloat64, scoreFloor / 2, scoreFloor, math.Nextafter(scoreFloor, 1),
		lo, DefaultThreshold, math.Nextafter(1, 0), 1, 1.25, math.NaN(),
	}
	chains := []struct {
		name  string
		bands []Band // of the tiers below the last
	}{
		{"one tier", nil},
		{"RecallBand", []Band{RecallBand()}},
		{"ceiling band", []Band{{Lo: lo, Hi: 1}}},
		{"three tiers", []Band{RecallBand(), midBand}},
	}
	type dist struct{ mean, std float64 }
	var dists []dist
	for _, p := range []Profile{MaskRCNN, YOLOv3, I3D, DistilledRCNN, DistilledI3D, IdealObject, eagerProxy} {
		dists = append(dists, dist{p.TPScoreMean, p.TPScoreStd}, dist{p.FPScoreMean, p.FPScoreStd})
	}
	for _, mean := range []float64{-0.5, 0, scoreFloor / 2, scoreFloor, lo, 0.3, DefaultThreshold, 0.9, 1, 1.2, math.NaN()} {
		for _, std := range []float64{0, 1e-13, 0.05, 0.2, 1, math.NaN()} {
			dists = append(dists, dist{mean, std})
		}
	}
	cutoffs := 0
	checkCutoffs := func(cell string, tau float64) {
		t.Helper()
		for _, d := range append(dists, dist{tau, 0.1}) {
			got, want := newCutoff(d.mean, d.std, tau), refNewCutoff(d.mean, d.std, tau)
			if !sameFloat(got.u1, want.u1) || got.above != want.above || got.ready != want.ready {
				t.Fatalf("%s: cutoff(mean %v, std %v, τ %v) = %+v, referee %+v", cell, d.mean, d.std, tau, got, want)
			}
			cutoffs++
		}
	}
	noFail := func(int) bool { return false }
	for _, c := range chains {
		for _, tau := range taus {
			cell := fmt.Sprintf("%s at τ=%v", c.name, tau)
			var recs []*tauRecorder
			var tiers []TierInfo
			for i := 0; i <= len(c.bands); i++ {
				band := Band{}
				if i < len(c.bands) {
					band = c.bands[i]
				}
				rec := &tauRecorder{Model: scriptModel{fmt.Sprint("tier", i), func(int) float64 { return 0.5 }, noFail}}
				recs, tiers = append(recs, rec), append(tiers, newTier(rec, band, 0))
			}
			chain := newScorer(tiers...)
			var acc Account
			acc.Reset(len(tiers))
			if _, err := chain.Score(context.Background(), v, "car", 0, 0, make([]float64, 4), tau, 0, RetryConfig{}, &acc); err != nil {
				t.Fatal(err)
			}
			if _, err := (cascade{chain}).Score(v, "car", 0, make([]float64, 4), tau, Need{}, 0); err != nil {
				t.Fatal(err)
			}
			for i, rec := range recs {
				want := refTauAt(chain, i, tau)
				if len(rec.taus) == 0 {
					t.Fatalf("%s: tier %d never scored", cell, i)
				}
				for _, got := range append(rec.taus, chain.tauAt(i, tau)) {
					if !sameFloat(got, want) {
						t.Fatalf("%s: tier %d scored at τ=%v, referee %v", cell, i, got, want)
					}
				}
				objTeacher := &teacherRecorder{ObjectDetector: NewObjectDetector(MaskRCNN, 1)}
				actTeacher := &tauRecorder{Model: NewActionRecognizer(I3D, 1)}
				dst := make([]float64, 4)
				if _, err := NewDistilledObjectDetector(objTeacher, DistilledRCNN, 1).Score(v, "car", 0, dst, want, Need{}, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := NewDistilledActionRecognizer(actTeacher, DistilledI3D, 1).Score(v, "jumping", 0, dst, want, Need{}, 0); err != nil {
					t.Fatal(err)
				}
				wantTeacher := refTeacherTau(want)
				for _, got := range append(append(objTeacher.taus, actTeacher.taus...), teacherTau(want)) {
					if !sameFloat(got, wantTeacher) {
						t.Fatalf("%s: tier %d's proxy passed its teacher τ=%v, referee %v", cell, i, got, wantTeacher)
					}
				}
				checkCutoffs(cell, want)
				checkCutoffs(cell, wantTeacher)
			}
		}
	}
	if want := len(chains) * len(taus) * 2 * (len(dists) + 1); cutoffs < want {
		t.Fatalf("checked %d cutoffs, want at least %d", cutoffs, want)
	}
}
