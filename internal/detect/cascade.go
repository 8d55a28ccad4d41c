package detect

import (
	"context"
	"strings"
	"time"

	"svqact/internal/video"
)

// Model chains. The engine sees every model as a black box that emits one
// score per occurrence unit — a frame for objects, a shot for actions. A
// chain is an ordered list of such models, cheapest first and most accurate
// last, each with an escalation band: a unit is scored by the entry tier and
// moves up only while its score is uncertain. Production video systems
// rarely run the accurate model on every unit; a cheap proxy (a distilled or
// pruned student of the accurate teacher) scores first and only the units it
// cannot decide reach the expensive tier.
//
// A plain model is a one-tier chain: its only tier is the last, so it
// decides every unit and nothing escalates. That makes "score a run of units
// with batching, retry and accounting" one function, Scorer.Score, whatever
// the model: ObjectScorer and ActionScorer return the chain behind a model,
// and the engine's clip evaluation and rank's action ingest both walk it.
// ObjectCascade and ActionCascade bind a chain of two or more tiers to the
// ordinary ObjectDetector / ActionRecognizer contracts, so consumers built
// for a single model keep working.
//
// Soundness. A chain is never less sound than its most accurate tier alone,
// by construction:
//
//   - a tier decides a unit only when its score falls outside its
//     escalation band; anything in-band escalates to the next tier, and the
//     last tier always decides;
//   - a tier whose invocation fails (after its own per-model retry budget)
//     falls through to the next tier instead of failing the unit — only the
//     last tier's failure surfaces as an error;
//   - the calibrated proxies built by NewDistilledObjectCascade /
//     NewDistilledActionCascade are recall-complete: the proxy's score is
//     ≥ the teacher's score on every unit (it sees everything the teacher
//     sees, plus its own extra false positives). Under RecallBand — escalate
//     on any nonzero score — the teacher therefore scores every unit the
//     proxy does not silently reject, and a proxy rejection (score 0)
//     implies the teacher would also have scored 0. The cascade's scores,
//     detections and events are bit-identical to running the accurate tier
//     alone; only the cost differs.
//
// The plain ObjectDetector / ActionRecognizer methods of a cascade are
// faultless, like every plain-method path; Score observes each tier's own
// faults. rank's lazy ingest therefore builds a cascade's action table from
// the same per-tier faulty walk as the individual sequences stored beside it
// (a shot whose last tier fails contributes no score), while its object
// tables aggregate per-instance detections — a different contract — through
// the faultless events path.

// Band is a tier's escalation band: a score in [Lo, Hi) is uncertain and
// escalates to the next tier; a score outside the band decides the unit at
// this tier. The last tier's band is ignored — it always decides.
type Band struct {
	Lo, Hi float64
}

// Escalates reports whether a score is uncertain at this tier.
func (b Band) Escalates(s float64) bool { return s >= b.Lo && s < b.Hi }

// RecallBand escalates on any detection at all: simulated scores are either
// 0 (nothing detected) or ≥ 0.01 (clampScore's floor), so Lo sits strictly
// between and Hi above the score ceiling. With a recall-complete proxy this
// band makes the cascade bit-identical to its accurate tier.
func RecallBand() Band { return Band{Lo: 0.005, Hi: 2} }

// TierInfo describes one tier of a chain to the planner and the EXPLAIN
// surfaces.
type TierInfo struct {
	// Name is the tier model's name.
	Name string
	// UnitCost is the tier's simulated inference latency per unit.
	UnitCost time.Duration
	// PriorEscalate is the prior probability a unit scored at this tier
	// escalates past it, before any live observations. Always 0 for the
	// last tier.
	PriorEscalate float64
}

// ObjectTier is one tier of an object cascade. The detector may be wrapped
// in a FaultyObjectDetector — fault decorators compose per tier, so each
// model keeps its own fault realisation and its own retry budget.
type ObjectTier struct {
	Detector ObjectDetector
	// Band is the tier's escalation band; ignored for the last tier.
	Band Band
	// PriorEscalate seeds the planner's escalation estimate for this tier.
	PriorEscalate float64
}

// ActionTier is one tier of an action cascade.
type ActionTier struct {
	Recognizer    ActionRecognizer
	Band          Band
	PriorEscalate float64
}

// Account is what one or more Score calls did: per tier, how many units
// were scored and how each was resolved; in total, the invocation attempts
// made, how they failed, and the simulated inference cost accrued (priced
// per attempt, so retries and the attempts spent on a unit that finally
// fails are paid for). It is the walker's only output besides the scores:
// the engine resets one per evaluation, prices the evaluation from it, feeds
// the planner's escalation estimators and flushes it to the meter once
// (Meter.Record).
type Account struct {
	// Units counts units scored at each tier (indexed by tier position).
	Units []int64
	// Decided counts units resolved at each tier.
	Decided []int64
	// Escalated counts units whose score landed in the tier's band.
	Escalated []int64
	// Fallthroughs counts units escalated because the tier's invocation
	// failed after its retry budget — the conservative failure path.
	Fallthroughs []int64
	// Cost is the simulated inference cost accrued, per attempt.
	Cost time.Duration
	// Attempts counts model invocations across all tiers; Retries the ones
	// past a unit's first at a tier.
	Attempts, Retries int64
	// Transient and Permanent count failed attempts by IsTransient.
	Transient, Permanent int64
}

// Reset zeroes the account for a chain with the given number of tiers.
func (a *Account) Reset(tiers int) {
	*a = Account{
		Units:        zeroCounts(a.Units, tiers),
		Decided:      zeroCounts(a.Decided, tiers),
		Escalated:    zeroCounts(a.Escalated, tiers),
		Fallthroughs: zeroCounts(a.Fallthroughs, tiers),
	}
}

func zeroCounts(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tier is one model of a chain with its occurrence unit erased: a frame
// detector and a shot recogniser look the same to the walker.
type tier struct {
	TierInfo
	band Band
	// score is the model's plain method, which cannot fail.
	score func(v TruthVideo, label string, unit int) float64
	// attempt is set for fallible models only: one invocation that may fail,
	// run under the retry policy.
	attempt func(v TruthVideo, label string, unit, attempt int) (float64, error)
	// batch is set for infallible models that score a run of units in one
	// call; it fills the same scores as score, unit by unit.
	batch func(v TruthVideo, label string, start int, dst []float64)
}

func objectTier(t ObjectTier) tier {
	d := t.Detector
	ti := tier{
		TierInfo: TierInfo{Name: d.Name(), UnitCost: d.UnitCost(), PriorEscalate: t.PriorEscalate},
		band:     t.Band, score: d.FrameScore,
	}
	if fd, ok := d.(FallibleObjectDetector); ok {
		ti.attempt = fd.FrameScoreAttempt
	} else if bs, ok := d.(BatchObjectScorer); ok {
		ti.batch = bs.FrameScoreBatch
	}
	return ti
}

func actionTier(t ActionTier) tier {
	r := t.Recognizer
	ti := tier{
		TierInfo: TierInfo{Name: r.Name(), UnitCost: r.UnitCost(), PriorEscalate: t.PriorEscalate},
		band:     t.Band, score: r.ShotScore,
	}
	if fr, ok := r.(FallibleActionRecognizer); ok {
		ti.attempt = fr.ShotScoreAttempt
	} else if bs, ok := r.(BatchActionScorer); ok {
		ti.batch = bs.ShotScoreBatch
	}
	return ti
}

// Scorer scores occurrence units with a chain of one or more tiers. It is
// immutable and safe for concurrent use; all per-call state lives in the
// caller's Account.
type Scorer struct {
	tiers []tier
	infos []TierInfo
}

func newScorer(tiers ...tier) *Scorer {
	tiers[len(tiers)-1].PriorEscalate = 0 // the last tier always decides
	s := &Scorer{tiers: tiers, infos: make([]TierInfo, len(tiers))}
	for i, t := range tiers {
		s.infos[i] = t.TierInfo
	}
	return s
}

// ObjectScorer returns the chain behind d: the cascade's own when d is an
// ObjectCascade, a one-tier chain otherwise.
func ObjectScorer(d ObjectDetector) *Scorer {
	if c, ok := d.(*ObjectCascade); ok {
		return c.chain
	}
	return newScorer(objectTier(ObjectTier{Detector: d}))
}

// ActionScorer returns the chain behind r, like ObjectScorer.
func ActionScorer(r ActionRecognizer) *Scorer {
	if c, ok := r.(*ActionCascade); ok {
		return c.chain
	}
	return newScorer(actionTier(ActionTier{Recognizer: r}))
}

// Tiers describes the chain for planning and EXPLAIN, cheapest tier first.
func (s *Scorer) Tiers() []TierInfo { return s.infos }

// name renders a cascade's name from its tiers.
func (s *Scorer) name() string {
	names := make([]string, len(s.infos))
	for i, ti := range s.infos {
		names[i] = ti.Name
	}
	return "cascade(" + strings.Join(names, ">") + ")"
}

// Score fills dst[i] with the chain's score for unit start+i of the label
// (an object type or an action), entering at tier from (clamped to the tier
// range) and escalating as bands and failures dictate. An infallible entry
// tier scores — and is charged for — the whole run in one batch call; every
// fallible tier is invoked per unit under retry, each model with its own
// attempt budget; a tier that still fails falls through to the next one. The
// first unit whose last-tier invocation fails — or during which ctx ends —
// stops the run with that error, and scored says how many units came before
// it: dst[:scored] holds their final scores, the rest of dst is unspecified.
// Everything the call did is added to acc, which must have been Reset for
// this chain.
func (s *Scorer) Score(ctx context.Context, v TruthVideo, label string, start, from int, dst []float64, retry RetryConfig, acc *Account) (scored int, err error) {
	last := len(s.tiers) - 1
	from = min(max(from, 0), last)
	entry := &s.tiers[from]
	batched := entry.batch != nil
	if batched {
		entry.batch(v, label, start, dst)
		n := int64(len(dst))
		acc.Units[from] += n
		acc.Attempts += n
		acc.Cost += time.Duration(n) * entry.UnitCost
		if from == last { // the last tier decides every unit
			acc.Decided[from] += n
			return len(dst), nil
		}
	}
	for i := range dst {
		ti := from
		if batched {
			if !entry.band.Escalates(dst[i]) {
				acc.Decided[from]++
				continue
			}
			acc.Escalated[from]++
			ti++
		}
		if dst[i], err = s.walk(ctx, v, label, start+i, ti, retry, acc); err != nil {
			return i, err
		}
	}
	return len(dst), nil
}

// walk scores one unit entering at tier ti, with per-tier retry and
// conservative fallthrough.
func (s *Scorer) walk(ctx context.Context, v TruthVideo, label string, unit, ti int, retry RetryConfig, acc *Account) (float64, error) {
	for last := len(s.tiers) - 1; ; ti++ {
		t := &s.tiers[ti]
		var sc float64
		var err error
		attempts := int64(1)
		if t.attempt == nil {
			sc = t.score(v, label, unit)
		} else {
			attempts = 0
			err = Retry(ctx, retry, func(attempt int) error {
				attempts++
				var aerr error
				if sc, aerr = t.attempt(v, label, unit, attempt); aerr == nil {
					return nil
				}
				if IsTransient(aerr) {
					acc.Transient++
				} else {
					acc.Permanent++
				}
				return aerr
			})
		}
		// A unit whose context ended before its first attempt was never
		// invoked: it charges nothing.
		if attempts > 0 {
			acc.Units[ti]++
			acc.Attempts += attempts
			acc.Retries += attempts - 1
			acc.Cost += time.Duration(attempts) * t.UnitCost
		}
		switch {
		case err != nil && ctx.Err() != nil:
			return 0, ctx.Err()
		case err != nil && ti < last:
			// Conservative fallthrough: a failed tier escalates instead of
			// failing the unit, so the chain is never less sound than its
			// accurate tier.
			acc.Escalated[ti]++
			acc.Fallthroughs[ti]++
		case err != nil:
			return 0, err
		case ti < last && t.band.Escalates(sc):
			acc.Escalated[ti]++
		default:
			acc.Decided[ti]++
			return sc, nil
		}
	}
}

// decide walks the chain faultlessly from tier from and returns the tier
// that decides the unit along with its score.
func (s *Scorer) decide(v TruthVideo, label string, unit, from int) (int, float64) {
	for i, last := from, len(s.tiers)-1; ; i++ {
		sc := s.tiers[i].score(v, label, unit)
		if i == last || !s.tiers[i].band.Escalates(sc) {
			return i, sc
		}
	}
}

// scoreBatch is the faultless walk over a run of units: the entry tier
// scores the whole run (in one batch call when it can), and only in-band
// units walk the higher tiers.
func (s *Scorer) scoreBatch(v TruthVideo, label string, start int, dst []float64) {
	t0 := &s.tiers[0]
	if t0.batch != nil {
		t0.batch(v, label, start, dst)
	} else {
		for i := range dst {
			dst[i] = t0.score(v, label, start+i)
		}
	}
	if len(s.tiers) == 1 {
		return
	}
	for i, sc := range dst {
		if t0.band.Escalates(sc) {
			_, dst[i] = s.decide(v, label, start+i, 1)
		}
	}
}

// ObjectCascade chains object detector tiers from cheapest to most
// accurate. It implements ObjectDetector (plus the batch and events
// capabilities), so any consumer built for a single detector runs the full
// cascade transparently and faultlessly; ObjectScorer returns its chain.
type ObjectCascade struct {
	chain *Scorer
	tiers []ObjectTier
	name  string
}

// NewObjectCascade chains tiers ordered cheapest first, most accurate last.
// Panics on fewer than two tiers — a one-tier cascade is just the detector.
func NewObjectCascade(tiers ...ObjectTier) *ObjectCascade {
	if len(tiers) < 2 {
		panic("detect: object cascade needs at least two tiers")
	}
	erased := make([]tier, len(tiers))
	for i, t := range tiers {
		erased[i] = objectTier(t)
	}
	chain := newScorer(erased...)
	return &ObjectCascade{chain: chain, tiers: tiers, name: chain.name()}
}

// NewDistilledObjectCascade builds the standard two-tier cascade: a
// recall-complete distilled proxy of teacher (see DistilledObjectDetector)
// gating the teacher itself, escalating under RecallBand. prof calibrates
// the proxy's extra false positives and unit cost.
func NewDistilledObjectCascade(teacher ObjectDetector, prof Profile, seed int64) *ObjectCascade {
	proxy := NewDistilledObjectDetector(teacher, prof, seed)
	return NewObjectCascade(
		ObjectTier{Detector: proxy, Band: RecallBand(), PriorEscalate: prof.EscalationPrior(RecallBand())},
		ObjectTier{Detector: teacher},
	)
}

// Name implements ObjectDetector.
func (c *ObjectCascade) Name() string { return c.name }

// UnitCost implements ObjectDetector. It reports the accurate tier's unit
// cost — the conservative price a consumer without tier awareness plans
// with.
func (c *ObjectCascade) UnitCost() time.Duration { return c.AccurateTier().UnitCost() }

// Tiers describes the cascade for planning and EXPLAIN.
func (c *ObjectCascade) Tiers() []TierInfo { return c.chain.infos }

// AccurateTier returns the last (most accurate) tier's detector.
func (c *ObjectCascade) AccurateTier() ObjectDetector { return c.tiers[len(c.tiers)-1].Detector }

// FrameScore implements ObjectDetector: the deciding tier's score.
func (c *ObjectCascade) FrameScore(v TruthVideo, typ string, frame int) float64 {
	_, s := c.chain.decide(v, typ, frame, 0)
	return s
}

// FrameDetections implements ObjectDetector: the deciding tier's
// detections.
func (c *ObjectCascade) FrameDetections(v TruthVideo, typ string, frame int) []Detection {
	i, _ := c.chain.decide(v, typ, frame, 0)
	return c.tiers[i].Detector.FrameDetections(v, typ, frame)
}

// AppendFrameEvents implements ObjectEventAppender: every frame's events
// come from the tier that decides it, each run of consecutive frames
// decided by one tier in one call to that tier.
func (c *ObjectCascade) AppendFrameEvents(v TruthVideo, typ string, frames video.Interval, ev *Events) {
	from, fromTier := frames.Start, -1
	for f := frames.Start; f <= frames.End; f++ {
		i, _ := c.chain.decide(v, typ, f, 0)
		if i != fromTier && fromTier >= 0 {
			AppendFrameEvents(c.tiers[fromTier].Detector, v, typ, video.Interval{Start: from, End: f - 1}, ev)
			from = f
		}
		fromTier = i
	}
	if fromTier >= 0 {
		AppendFrameEvents(c.tiers[fromTier].Detector, v, typ, video.Interval{Start: from, End: frames.End}, ev)
	}
}

// FrameScoreBatch implements BatchObjectScorer.
func (c *ObjectCascade) FrameScoreBatch(v TruthVideo, typ string, start int, dst []float64) {
	c.chain.scoreBatch(v, typ, start, dst)
}

// ActionCascade chains action recogniser tiers cheapest first, like
// ObjectCascade.
type ActionCascade struct {
	chain    *Scorer
	accurate ActionRecognizer
	name     string
}

// NewActionCascade chains tiers ordered cheapest first, most accurate last.
func NewActionCascade(tiers ...ActionTier) *ActionCascade {
	if len(tiers) < 2 {
		panic("detect: action cascade needs at least two tiers")
	}
	erased := make([]tier, len(tiers))
	for i, t := range tiers {
		erased[i] = actionTier(t)
	}
	chain := newScorer(erased...)
	return &ActionCascade{chain: chain, accurate: tiers[len(tiers)-1].Recognizer, name: chain.name()}
}

// NewDistilledActionCascade builds the two-tier recall-complete cascade for
// action recognisers, mirroring NewDistilledObjectCascade.
func NewDistilledActionCascade(teacher ActionRecognizer, prof Profile, seed int64) *ActionCascade {
	proxy := NewDistilledActionRecognizer(teacher, prof, seed)
	return NewActionCascade(
		ActionTier{Recognizer: proxy, Band: RecallBand(), PriorEscalate: prof.EscalationPrior(RecallBand())},
		ActionTier{Recognizer: teacher},
	)
}

// Name implements ActionRecognizer.
func (c *ActionCascade) Name() string { return c.name }

// UnitCost implements ActionRecognizer, reporting the accurate tier's cost.
func (c *ActionCascade) UnitCost() time.Duration { return c.accurate.UnitCost() }

// Tiers describes the cascade for planning and EXPLAIN.
func (c *ActionCascade) Tiers() []TierInfo { return c.chain.infos }

// AccurateTier returns the last (most accurate) tier's recogniser.
func (c *ActionCascade) AccurateTier() ActionRecognizer { return c.accurate }

// ShotScore implements ActionRecognizer: the deciding tier's score.
func (c *ActionCascade) ShotScore(v TruthVideo, act string, shot int) float64 {
	_, s := c.chain.decide(v, act, shot, 0)
	return s
}

// ShotScoreBatch implements BatchActionScorer.
func (c *ActionCascade) ShotScoreBatch(v TruthVideo, act string, start int, dst []float64) {
	c.chain.scoreBatch(v, act, start, dst)
}
