package detect

import (
	"math"
	"time"
)

// Profile calibrates a simulated model's error structure. The same profile
// type serves object detectors (occurrence unit: frame) and action
// recognisers (occurrence unit: shot).
type Profile struct {
	Name string

	// TPR is the probability a truly present type is detected on an
	// occurrence unit.
	TPR float64
	// TPScoreMean/Std shape the confidence scores of true detections
	// (clamped normal).
	TPScoreMean, TPScoreStd float64

	// FPIID is the probability of an isolated spurious detection of an
	// absent type per occurrence unit — the noise scan statistics are
	// designed to reject.
	FPIID float64
	// FPBurstGap and FPBurstLen parameterise sustained false-positive
	// episodes (a look-alike object in frame): mean units between bursts
	// and mean burst length. Zero FPBurstGap disables bursts.
	FPBurstGap, FPBurstLen float64
	// FPWithinBurst is the per-unit detection probability inside a burst.
	FPWithinBurst float64
	// FPScoreMean/Std shape hallucinated detection scores.
	FPScoreMean, FPScoreStd float64

	// UnitCost is the simulated inference latency per occurrence unit,
	// used for the runtime accounting of §5.2 (the paper reports >98% of
	// query latency is model inference).
	UnitCost time.Duration
}

// scoreTail returns P(score ≥ t) for a clamped-normal score distribution
// with the given mean and std. Scores clamp into (0, 1], so for thresholds
// in that range the clamping does not move mass across t and the plain
// normal tail applies; a zero std collapses to a point mass at the mean.
func scoreTail(t, mean, std float64) float64 {
	if t <= 0 {
		return 1
	}
	if std <= 0 {
		if mean >= t {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((t-mean)/(std*math.Sqrt2))
}

// fpUnitRate is the steady-state per-unit probability of a hallucinated
// detection: the burst process is an alternating renewal with mean gap
// FPBurstGap and mean length FPBurstLen, so a unit is inside a burst with
// probability len/(gap+len), hallucinating at FPWithinBurst there and FPIID
// elsewhere.
func (p Profile) fpUnitRate() float64 {
	bf := 0.0
	if p.FPBurstGap > 0 && p.FPBurstLen > 0 {
		bf = p.FPBurstLen / (p.FPBurstGap + p.FPBurstLen)
	}
	return (1-bf)*p.FPIID + bf*p.FPWithinBurst
}

// presencePrior is the assumed fraction of units whose type is present, used
// only to seed escalation priors; the live estimators take over within a few
// clips.
const presencePrior = 0.1

// EscalationPrior estimates the probability a unit scored under this
// profile lands in the escalation band b: present units contribute the
// true-positive band mass, absent units the hallucination band mass.
func (p Profile) EscalationPrior(b Band) float64 {
	tp := p.TPR * (scoreTail(b.Lo, p.TPScoreMean, p.TPScoreStd) - scoreTail(b.Hi, p.TPScoreMean, p.TPScoreStd))
	fp := p.fpUnitRate() * (scoreTail(b.Lo, p.FPScoreMean, p.FPScoreStd) - scoreTail(b.Hi, p.FPScoreMean, p.FPScoreStd))
	e := presencePrior*tp + (1-presencePrior)*fp
	return math.Min(1, math.Max(0, e))
}

// Calibrated model profiles. True-positive and false-positive rates are set
// so that, after the 0.5 score threshold, effective per-unit indicator rates
// land in the regimes the paper reports: Mask R-CNN strictly dominates
// YOLOv3, I3D has low per-shot noise, and the Ideal profiles reproduce
// ground truth exactly (paper Table 4's "ideal model" rows).
var (
	// MaskRCNN models the paper's high-accuracy two-stage object detector.
	MaskRCNN = Profile{
		Name: "maskrcnn", TPR: 0.94, TPScoreMean: 0.84, TPScoreStd: 0.10,
		FPIID: 0.015, FPBurstGap: 3000, FPBurstLen: 45, FPWithinBurst: 0.55,
		FPScoreMean: 0.58, FPScoreStd: 0.10, UnitCost: 45 * time.Millisecond,
	}

	// YOLOv3 models the faster, noisier one-stage detector.
	YOLOv3 = Profile{
		Name: "yolov3", TPR: 0.87, TPScoreMean: 0.78, TPScoreStd: 0.12,
		FPIID: 0.030, FPBurstGap: 2000, FPBurstLen: 60, FPWithinBurst: 0.60,
		FPScoreMean: 0.60, FPScoreStd: 0.11, UnitCost: 18 * time.Millisecond,
	}

	// I3D models the two-stream inflated 3D ConvNet action recogniser; its
	// occurrence unit is a shot.
	I3D = Profile{
		Name: "i3d", TPR: 0.90, TPScoreMean: 0.80, TPScoreStd: 0.10,
		FPIID: 0.012, FPBurstGap: 500, FPBurstLen: 4, FPWithinBurst: 0.50,
		FPScoreMean: 0.57, FPScoreStd: 0.10, UnitCost: 90 * time.Millisecond,
	}

	// DistilledRCNN calibrates the recall-complete distilled student of
	// Mask R-CNN, the cheap tier of the default object cascade: 15× cheaper
	// per frame, hallucinating more to never miss a teacher detection. The
	// proxy delegates true detections to its teacher, so its TP fields only
	// feed calibration checks and planner priors.
	DistilledRCNN = Profile{
		Name: "distilled-rcnn", TPR: 0.94, TPScoreMean: 0.70, TPScoreStd: 0.14,
		FPIID: 0.060, FPBurstGap: 1200, FPBurstLen: 70, FPWithinBurst: 0.70,
		FPScoreMean: 0.52, FPScoreStd: 0.12, UnitCost: 3 * time.Millisecond,
	}

	// DistilledI3D calibrates the recall-complete distilled student of I3D
	// used as the cheap tier of the default action cascade: 10× cheaper per
	// shot.
	DistilledI3D = Profile{
		Name: "distilled-i3d", TPR: 0.90, TPScoreMean: 0.68, TPScoreStd: 0.13,
		FPIID: 0.050, FPBurstGap: 350, FPBurstLen: 6, FPWithinBurst: 0.60,
		FPScoreMean: 0.52, FPScoreStd: 0.12, UnitCost: 9 * time.Millisecond,
	}

	// IdealObject reproduces object ground truth exactly (paper Table 4).
	IdealObject = Profile{Name: "ideal-object", TPR: 1, TPScoreMean: 1}

	// IdealAction reproduces action ground truth exactly.
	IdealAction = Profile{Name: "ideal-action", TPR: 1, TPScoreMean: 1}
)
