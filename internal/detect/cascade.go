package detect

import (
	"context"
	"strings"
	"time"

	"svqact/internal/video"
)

// Model chains. A chain is an ordered list of models, cheapest first and
// most accurate last, each with an escalation band: a unit is scored by the
// entry tier and moves up only while its score is uncertain, so a cheap proxy
// (a distilled student of the accurate teacher) decides most units and only
// the rest reach the expensive tier. A plain model is a one-tier chain — its
// only tier is the last, which decides every unit — so "score a run of units
// with batching, retry and accounting" is one function, Scorer.Score,
// whatever the model. Every tier honours the one Model contract, fault
// decorators included, so a fault-injected run executes the same code as a
// clean one. ObjectCascade and ActionCascade bind a chain back to that
// contract: invoked as a model, a cascade walks its tiers at the attempt it
// is given, with fallthrough and no retry of its own. Scorer.tauAt tables
// the threshold each tier scores at.
//
// Soundness. A chain is never less sound than its most accurate tier alone:
//
//   - a tier decides a unit only when its score falls outside its band;
//     anything in-band escalates, and the last tier always decides;
//   - a tier whose invocation still fails after its own retry budget falls
//     through to the next tier; only the last tier's failure is an error;
//   - the distilled proxies are recall-complete: wherever the teacher
//     detects anything the proxy scores exactly the teacher's score, and
//     elsewhere its own hallucination or 0. Under RecallBand the proxy
//     decides a unit only when it scores under Lo: a 0, where the teacher
//     scores 0 too, or a detection in (0, Lo) — clampScore lifts a sample
//     at or below 0 to scoreFloor but passes one in (0, scoreFloor)
//     through. Where the teacher detected, that score is the teacher's own.
//     Where it did not, it is the proxy's hallucination, which lies under
//     every operating threshold ≥ Lo just as the teacher's 0 does. So the
//     cascade's indicators at any threshold ≥ Lo are its accurate tier's,
//     and so are its scores and events except on such a hallucination (with
//     the shipped proxies' profiles, about 1.5e-6 of their hallucinations);
//     only the cost differs.

// Band is a tier's escalation band: a score in [Lo, Hi) is uncertain and
// escalates to the next tier; a score outside the band decides the unit at
// this tier. The last tier's band is ignored — it always decides.
type Band struct {
	Lo, Hi float64
}

// Escalates reports whether a score is uncertain at this tier.
func (b Band) Escalates(s float64) bool { return s >= b.Lo && s < b.Hi }

// RecallBand escalates every detection scoring at least Lo; Hi lies above
// the score ceiling. A simulated detection scoring under Lo is decided by
// the tier that scored it (see the soundness note above).
func RecallBand() Band { return Band{Lo: 0.005, Hi: 2} }

// TierInfo describes one tier of a chain to the planner and the EXPLAIN
// surfaces: its model's name and unit cost, and the prior probability a unit
// scored at the tier escalates past it (always 0 for the last tier).
type TierInfo struct {
	Name          string
	UnitCost      time.Duration
	PriorEscalate float64

	band  Band  // ignored for the last tier
	model Model // the tier's model, its occurrence unit erased
}

func newTier(m Model, band Band, prior float64) TierInfo {
	return TierInfo{Name: m.Name(), UnitCost: m.UnitCost(), PriorEscalate: prior, band: band, model: m}
}

// ObjectTier is one tier of an object cascade. Fault decorators compose per
// tier, so each model keeps its own fault realisation and retry budget.
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

// Account is what one or more Score or ReadEvents calls did: per tier, how
// many units were scored and how each was resolved; in total, the attempts
// made, how they failed, and the simulated inference cost, priced per
// attempt. The engine resets one per evaluation, prices the evaluation from
// it, feeds the planner's escalation estimators and adds it to the run's
// ledger (Add), which the run flushes to the meter once (Meter.Record).
type Account struct {
	// Per tier position: units scored, units resolved, units escalated
	// (in-band or failed), and units escalated because the tier still
	// failed after its retry budget — the conservative failure path.
	Units, Decided, Escalated, Fallthroughs []int64
	// Cost is the simulated inference cost accrued, per attempt.
	Cost time.Duration
	// Attempts counts invocations across all tiers; Retries the ones past a
	// unit's first at a tier. Transient and Permanent classify failed
	// attempts by IsTransient.
	Attempts, Retries, Transient, Permanent int64
}

// Reset zeroes the account in place for a chain with the given number of
// tiers, reusing the per-tier slices' capacity.
func (a *Account) Reset(tiers int) {
	a.Units = zeroCounts(a.Units, tiers)
	a.Decided = zeroCounts(a.Decided, tiers)
	a.Escalated = zeroCounts(a.Escalated, tiers)
	a.Fallthroughs = zeroCounts(a.Fallthroughs, tiers)
	a.Cost = 0
	a.Attempts, a.Retries, a.Transient, a.Permanent = 0, 0, 0, 0
}

func zeroCounts(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Add adds b's counts to a's; a must have been Reset for b's chain.
func (a *Account) Add(b *Account) {
	for i := range b.Units {
		a.Units[i] += b.Units[i]
		a.Decided[i] += b.Decided[i]
		a.Escalated[i] += b.Escalated[i]
		a.Fallthroughs[i] += b.Fallthroughs[i]
	}
	a.Cost += b.Cost
	a.Attempts += b.Attempts
	a.Retries += b.Retries
	a.Transient += b.Transient
	a.Permanent += b.Permanent
}

// charge records units reached at tier ti and the attempts they took.
func (a *Account) charge(ti int, units, attempts int64, unitCost time.Duration) {
	a.Units[ti] += units
	a.Attempts += attempts
	a.Retries += attempts - units
	a.Cost += time.Duration(attempts) * unitCost
}

// retryAfter retries a unit whose attempt 0 failed with err0: try(attempt)
// from attempt 1 under the retry policy, every failure classified in acc. It
// returns the attempts made, the first included, and the last error (ctx's,
// when it ended first).
func retryAfter(ctx context.Context, retry RetryConfig, acc *Account, err0 error, try func(attempt int) error) (attempts int64, err error) {
	attempts = 1
	acc.fault(err0)
	err = Retry(ctx, retry, func(a int) error {
		if a == 0 {
			return err0
		}
		attempts++
		err := try(a)
		acc.fault(err)
		return err
	})
	return attempts, err
}

// fault classifies one failed attempt; a nil error is no failure.
func (a *Account) fault(err error) {
	switch {
	case err == nil:
	case IsTransient(err):
		a.Transient++
	default:
		a.Permanent++
	}
}

// Scorer scores occurrence units with a chain of one or more tiers. It is
// immutable and safe for concurrent use; all per-call state lives in the
// caller's Account.
type Scorer struct {
	tiers []TierInfo
}

func newScorer(tiers ...TierInfo) *Scorer {
	tiers[len(tiers)-1].PriorEscalate = 0 // the last tier always decides
	return &Scorer{tiers}
}

// ScorerOf returns the chain behind m: a cascade's own, a one-tier chain of
// m otherwise.
func ScorerOf(m Model) *Scorer {
	switch c := m.(type) {
	case *ObjectCascade:
		return c.chain
	case *ActionCascade:
		return c.chain
	}
	return newScorer(newTier(m, Band{}, 0))
}

// Tiers describes the chain for planning and EXPLAIN, cheapest tier first.
func (s *Scorer) Tiers() []TierInfo { return s.tiers }

// Score fills dst[i] with the chain's score for unit start+i of the label,
// entering at tier from (clamped to the tier range), at threshold tau as
// Model.Score defines it: the deciding tier scores at tau, a tier below it
// at its band's edge or in full (tauAt), so the escalation set and the
// account are those of full scores. Every tier scores in batches at attempt
// 0: the entry tier the whole run, a higher tier each maximal run of units
// the tier below left in band. A unit that fails at attempt 0 is retried
// alone under retry, climbs alone when it still fails (a fallthrough) or
// scores in band, and the batch resumes after it at attempt 0. ctx is
// consulted once before the entry batch and then only by retries.
//
// need > 0 is a decision — whether need of the run's final scores reach
// tau — and the walk stops at the first unit before which it is decided:
// once need units have reached tau, or once too few units are left for
// them to. A unit's score is final once a tier decides it, so a cascade
// stops where its last tier alone would, and only the last tier is asked
// to stop its batch (an in-band unit is undecided until escalated). need
// ≤ 0 scores the whole run.
//
// The first unit whose last tier still fails — or whose retries ctx ends —
// also stops the run. scored says how many units came before the stop,
// whose final scores are dst[:scored]. A unit is charged to acc at every
// tier the walk takes it through, and a unit after the stop at none,
// exactly as if each unit were scored alone; acc must have been Reset for
// this chain.
func (s *Scorer) Score(ctx context.Context, v TruthVideo, label string, start, from int, dst []float64, tau float64, need int, retry RetryConfig, acc *Account) (scored int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	w := walk{Scorer: s, ctx: ctx, v: v, label: label, tau: tau, retry: retry, acc: acc, need: need, end: start + len(dst)}
	return w.score(min(max(from, 0), len(s.tiers)-1), start, dst)
}

// tauAt is the threshold tier ti scores at. Each role inside a chain gets
// τ > 0 only where it needs just one side of it, and a simulated score is
// decided without drawing only on a side decidable allows:
//
//	role                   receives                          may decide
//	the chain's last tier  the chain's τ                     either side
//	a tier below it        its band's Lo when 0 < Lo ≤ τ     the side of Lo
//	                       and Hi > 1 (RecallBand), else 0
//	a proxy's teacher      teacherTau: the proxy's τ, or 0   above only
//	                       when τ > scoreFloor
//	a simulated draw       its model's τ                     decidable(τ)
//
// Such a band reads only whether a score reaches Lo: a unit above escalates
// to be rescored, and one below Lo is below τ too. Any other band reads the
// score, so its tier scores in full.
func (s *Scorer) tauAt(ti int, tau float64) float64 {
	if ti == len(s.tiers)-1 {
		return tau
	}
	if b := s.tiers[ti].band; b.Lo > 0 && b.Lo <= tau && b.Hi > 1 {
		return b.Lo
	}
	return 0
}

// walk is one Score call: its fixed arguments, shared by the recursion over
// the tiers, and its decision: need, the units before end it is over, and
// how many final scores have reached tau so far.
type walk struct {
	*Scorer
	ctx   context.Context
	v     TruthVideo
	label string
	tau   float64
	retry RetryConfig
	acc   *Account

	need, end, count int
}

// decided reports whether the decision is fixed before unit next.
func (w *walk) decided(next int) bool {
	return Need{Count: w.need}.decided(w.count, w.end-next)
}

// final counts a unit's final score toward the decision.
func (w *walk) final(s float64) {
	if s >= w.tau {
		w.count++
	}
}

// settle counts the final scores in dst, units start onwards, until the
// decision is fixed, and returns how many it counted.
func (w *walk) settle(start int, dst []float64) int {
	for k, s := range dst {
		if w.decided(start + k) {
			return k
		}
		w.final(s)
	}
	return len(dst)
}

// score resolves dst, units start onwards, from tier ti up, unit by unit
// until the decision is fixed. It returns how many units came before the
// one that stopped the walk, which is charged at every tier it reached.
func (w *walk) score(ti, start int, dst []float64) (int, error) {
	t, at, last := &w.tiers[ti], w.tauAt(ti, w.tau), len(w.tiers)-1
	i := 0
	for i < len(dst) && !w.decided(start+i) {
		var need Need
		if ti == last && w.need > 0 { // only the last tier's scores are final
			need = Need{Count: w.need - w.count, Beyond: w.end - start - len(dst)}
		}
		n, err0 := t.model.Score(w.v, w.label, start+i, dst[i:], at, need, 0)
		k, err := n, error(nil)
		if ti == last { // the last tier decides every unit it scored up to the decision
			if w.need > 0 {
				k = w.settle(start+i, dst[i:i+n])
			}
			w.acc.charge(ti, int64(k), int64(k), t.UnitCost)
			w.acc.Decided[ti] += int64(k)
		} else {
			k, err = w.escalate(ti, start+i, dst[i:i+n])
		}
		if err != nil || k < n {
			return i + k, err
		}
		if i += n; err0 == nil || w.decided(start+i) {
			continue
		}
		if err := w.retryUnit(ti, start+i, dst[i:i+1], err0); err != nil {
			return i, err
		}
		i++
	}
	return i, nil
}

// escalate charges units tier ti (not the last) scored into dst, in order,
// until the decision is fixed: a unit outside the band is decided at ti,
// and each maximal run of in-band units is first resolved from tier ti+1 in
// one batch, then charged at ti as far as that reached — all of it, or up
// to the unit that stopped the walk.
func (w *walk) escalate(ti, start int, dst []float64) (int, error) {
	t := &w.tiers[ti]
	for i := 0; i < len(dst); {
		a := i
		for a < len(dst) && !t.band.Escalates(dst[a]) {
			a++
		}
		if w.need > 0 {
			a = i + w.settle(start+i, dst[i:a])
		}
		w.acc.charge(ti, int64(a-i), int64(a-i), t.UnitCost)
		w.acc.Decided[ti] += int64(a - i)
		if a == len(dst) || w.decided(start+a) {
			return a, nil
		}
		b := a
		for b < len(dst) && t.band.Escalates(dst[b]) {
			b++
		}
		k, err := w.score(ti+1, start+a, dst[a:b])
		reached := int64(k)
		if err != nil {
			reached++
		}
		w.acc.charge(ti, reached, reached, t.UnitCost)
		w.acc.Escalated[ti] += reached
		if err != nil || k < b-a {
			return a + k, err
		}
		i = b
	}
	return len(dst), nil
}

// retryUnit resolves one unit into one[0] whose attempt 0 at tier ti failed
// with err0: it retries the unit alone there and, when the tier still fails
// below the last (a conservative fallthrough) or scores it in band, resolves
// it from tier ti+1.
func (w *walk) retryUnit(ti, unit int, one []float64, err0 error) error {
	t, at := &w.tiers[ti], w.tauAt(ti, w.tau)
	attempts, err := retryAfter(w.ctx, w.retry, w.acc, err0, func(a int) error {
		_, err := t.model.Score(w.v, w.label, unit, one, at, Need{}, a)
		return err
	})
	w.acc.charge(ti, 1, attempts, t.UnitCost)
	last := len(w.tiers) - 1
	switch {
	case err != nil && w.ctx.Err() != nil:
		return w.ctx.Err()
	case err != nil && ti == last:
		return err
	case err != nil:
		w.acc.Escalated[ti]++
		w.acc.Fallthroughs[ti]++
	case ti < last && t.band.Escalates(one[0]):
		w.acc.Escalated[ti]++
	default:
		w.acc.Decided[ti]++
		w.final(one[0])
		return nil
	}
	_, err = w.score(ti+1, unit, one)
	return err
}

// decide walks one unit up the chain at one attempt, without retry: a
// failed tier falls through, and a failed last tier fails the unit. It
// returns the deciding tier, its score at tau in one[0].
func (s *Scorer) decide(v TruthVideo, label string, unit int, one []float64, tau float64, attempt int) (int, error) {
	for i, last := 0, len(s.tiers)-1; ; i++ {
		_, err := s.tiers[i].model.Score(v, label, unit, one, s.tauAt(i, tau), Need{}, attempt)
		if err != nil && i == last || err == nil && (i == last || !s.tiers[i].band.Escalates(one[0])) {
			return i, err
		}
	}
}

// cascade binds a chain of two or more tiers to the Model contract.
type cascade struct{ chain *Scorer }

func newCascade(tiers []TierInfo) cascade {
	if len(tiers) < 2 {
		panic("detect: a cascade needs at least two tiers") // one tier is just the model
	}
	return cascade{newScorer(tiers...)}
}

// Name renders the cascade's name from its tiers.
func (c cascade) Name() string {
	names := make([]string, len(c.chain.tiers))
	for i, ti := range c.chain.tiers {
		names[i] = ti.Name
	}
	return "cascade(" + strings.Join(names, ">") + ")"
}

// UnitCost is the accurate tier's: the conservative price to plan with.
func (c cascade) UnitCost() time.Duration { return c.chain.tiers[len(c.chain.tiers)-1].UnitCost }

// Score implements Model: every unit's deciding tier's score at the attempt.
func (c cascade) Score(v TruthVideo, label string, start int, dst []float64, tau float64, need Need, attempt int) (int, error) {
	pos := 0
	for i := range dst {
		if need.decided(pos, len(dst)-i) {
			return i, nil
		}
		if _, err := c.chain.decide(v, label, start+i, dst[i:i+1], tau, attempt); err != nil {
			return i, err
		}
		if dst[i] >= tau {
			pos++
		}
	}
	return len(dst), nil
}

// ObjectCascade chains object detector tiers from cheapest to most
// accurate; ScorerOf returns its chain.
type ObjectCascade struct {
	cascade
	detectors []ObjectDetector
}

// NewObjectCascade chains tiers ordered cheapest first, most accurate last.
// Panics on fewer than two tiers — a one-tier cascade is just the detector.
func NewObjectCascade(tiers ...ObjectTier) *ObjectCascade {
	erased, dets := make([]TierInfo, len(tiers)), make([]ObjectDetector, len(tiers))
	for i, t := range tiers {
		erased[i], dets[i] = newTier(t.Detector, t.Band, t.PriorEscalate), t.Detector
	}
	return &ObjectCascade{cascade: newCascade(erased), detectors: dets}
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

// Events implements ObjectDetector: every frame's events come from the tier
// that decides it at the attempt.
func (c *ObjectCascade) Events(v TruthVideo, typ string, frames video.Interval, ev *Events, attempt int) (int, error) {
	var one [1]float64
	for f := frames.Start; f <= frames.End; f++ {
		i, err := c.chain.decide(v, typ, f, one[:], 0, attempt)
		if err == nil {
			_, err = c.detectors[i].Events(v, typ, video.Interval{Start: f, End: f}, ev, attempt)
		}
		if err != nil {
			return f - frames.Start, err
		}
	}
	return frames.Len(), nil
}

// FrameScore implements ObjectDetector.
func (c *ObjectCascade) FrameScore(v TruthVideo, typ string, frame int) float64 {
	return unitScore(c, v, typ, frame)
}

// ActionCascade chains action recogniser tiers, like ObjectCascade.
type ActionCascade struct{ cascade }

// NewActionCascade chains tiers ordered cheapest first, most accurate last.
func NewActionCascade(tiers ...ActionTier) *ActionCascade {
	erased := make([]TierInfo, len(tiers))
	for i, t := range tiers {
		erased[i] = newTier(t.Recognizer, t.Band, t.PriorEscalate)
	}
	return &ActionCascade{newCascade(erased)}
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
