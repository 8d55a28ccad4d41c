package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"svqact/internal/detect"
	"svqact/internal/kernel"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/scanstat"
	"svqact/internal/video"
)

// Mode selects between the paper's two online algorithms.
type Mode int

const (
	// Static is SVAQ: critical values fixed from the initial background
	// probabilities (paper Algorithm 1).
	Static Mode = iota
	// Dynamic is SVAQD: per-predicate background probabilities estimated
	// online and critical values refreshed as they drift (Algorithm 3).
	Dynamic
)

func (m Mode) String() string {
	if m == Dynamic {
		return "SVAQD"
	}
	return "SVAQ"
}

// Engine runs online action queries over streaming videos.
type Engine struct {
	models detect.Models
	cfg    Config
	mode   Mode

	// obj and act describe the two models to the clip loop, resolved once so
	// per-clip dispatch is a field read rather than an interface assertion.
	obj, act detector

	// hooks are the test seams; nil in every production engine.
	hooks *testHooks
}

// testHooks are an engine's test seams. Each one left zero does nothing.
type testHooks struct {
	// evaluated sees every evaluation's charge as a run adds it to its
	// ledger: the atom and clip evaluated, the inference units and the
	// account. The tests charge a meter per evaluation through it, to check
	// the ledger's one flush, and rescore the evaluated clips to referee the
	// raw clip indicators.
	evaluated func(a Atom, clip, inferences int, acc *detect.Account)
	// fullScan scans every clip in full: the referee the tests hold the
	// decision stop to.
	fullScan bool
	// alwaysBootstrap samples the bootstrap prefix of every run, whatever
	// its mode and length: the referee the tests hold the sample schedule
	// to.
	alwaysBootstrap bool
	// ticked sees every background-estimator update a run applies, with the
	// clip it was applied on.
	ticked func(clip int)
	// learned sees every count a run feeds its estimation machinery (learn),
	// with the atom and the clip it was read on.
	learned func(a Atom, clip, count int)
}

// detector is what the clip loop needs to know about one model: how to
// price, threshold and score with it.
type detector struct {
	label     string // detect.KindObject or detect.KindAction, for the meter
	unitCost  time.Duration
	threshold float64
	// chain scores the model's units — a one-tier chain for a plain model.
	// costs is the chain in the planner's cost model, empty for one tier.
	chain *detect.Scorer
	costs []plan.TierCost
}

// NewSVAQ builds the static-background engine.
func NewSVAQ(models detect.Models, cfg Config) (*Engine, error) {
	return newEngine(models, cfg, Static)
}

// NewSVAQD builds the adaptive engine.
func NewSVAQD(models detect.Models, cfg Config) (*Engine, error) {
	return newEngine(models, cfg, Dynamic)
}

func newEngine(models detect.Models, cfg Config, mode Mode) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if models.Objects == nil || models.Actions == nil {
		return nil, fmt.Errorf("core: engine needs both an object detector and an action recogniser")
	}
	e := &Engine{models: models, cfg: cfg, mode: mode}
	e.obj = detector{
		label: detect.KindObject, unitCost: models.Objects.UnitCost(), threshold: models.ObjThreshold,
		chain: detect.ScorerOf(models.Objects),
	}
	e.act = detector{
		label: detect.KindAction, unitCost: models.Actions.UnitCost(), threshold: models.ActThreshold,
		chain: detect.ScorerOf(models.Actions),
	}
	e.obj.costs, e.act.costs = TierCosts(e.obj.chain.Tiers()), TierCosts(e.act.chain.Tiers())
	return e, nil
}

// detector returns the model a predicate kind is scored with: the action
// recogniser per shot, the object detector per frame — for objects and for
// relations, which read the object detector's output.
func (e *Engine) detector(kind PredicateKind) *detector {
	if kind == ActionPredicate {
		return &e.act
	}
	return &e.obj
}

// TierCosts converts cascade tier descriptions into the planner's tier cost
// model — the bridge between detect's calibrated profiles and plan's
// escalation estimators, shared by the online planner and rank's static one.
func TierCosts(infos []detect.TierInfo) []plan.TierCost {
	if len(infos) < 2 {
		return nil
	}
	tiers := make([]plan.TierCost, len(infos))
	for i, ti := range infos {
		tiers[i] = plan.TierCost{Name: ti.Name, UnitCost: ti.UnitCost, PriorEscalate: ti.PriorEscalate}
	}
	return tiers
}

// Mode returns which algorithm the engine runs.
func (e *Engine) Mode() Mode { return e.mode }

// PredicateKind distinguishes object and action predicates in diagnostics.
type PredicateKind int

const (
	// ObjectPredicate is evaluated per frame.
	ObjectPredicate PredicateKind = iota
	// ActionPredicate is evaluated per shot.
	ActionPredicate
	// RelationPredicate is a spatial-relationship atom, evaluated per frame
	// from pairs of detections (extended queries only).
	RelationPredicate
)

// PredicateStats reports per-predicate diagnostics of a run.
type PredicateStats struct {
	Name string
	Kind PredicateKind
	// Clips is the set of clips on which the predicate's indicator was
	// positive (the offline phase materialises these as the paper's
	// "individual sequences").
	Clips video.IntervalSet
	// RawClips is the set of sampled clips whose count was read in full on
	// which some occurrence unit (a frame for objects and relations, a shot
	// for the action) reached the threshold — the pre-filtering signal,
	// merged to clips. Counts are read in full on every clip under
	// NoShortCircuit, and on the sampled clips of an SVAQD run longer than
	// robustWindowClips clips, whose estimators read them; in every other run
	// no count is, and RawClips is empty.
	RawClips video.IntervalSet
	// Background is the final background probability in effect (the fixed
	// p0 for SVAQ, the last estimate for SVAQD).
	Background float64
	// Critical is the final critical value in effect.
	Critical int
	// EvaluatedClips counts the clips on which the predicate was actually
	// evaluated: every sampled clip, and the unsampled ones the
	// short-circuit left to it. Which clips are sampled — every clip under
	// NoShortCircuit, else every estimatorSampleEvery-th clip plus the
	// bootstrap prefix of an SVAQD run longer than robustWindowClips clips —
	// depends on the mode and the run's length only.
	EvaluatedClips int
}

// Result is the outcome of a run over one video.
type Result struct {
	// Query is the basic query of a Run; CNF the extended query of a RunCNF
	// (the other is zero).
	Query    Query
	CNF      CNF
	Mode     Mode
	Geometry video.Geometry
	// NumClips is the number of clips in the processed video; Processed
	// counts the clips actually evaluated (smaller when the run was cut
	// short by cancellation or degradation).
	NumClips  int
	Processed int
	// Sequences is P_q: maximal runs of clips satisfying the whole query.
	Sequences video.IntervalSet
	// Flagged is the set of clips skipped after detector retry exhaustion
	// (their indicator is conservatively negative) — the degraded-but-alive
	// outcome of the failure model.
	Flagged video.IntervalSet
	// Predicates holds per-predicate diagnostics: objects in query order
	// followed by the action for a basic query, one entry per distinct atom
	// in first-appearance order for an extended one.
	Predicates []PredicateStats
	// Plan reports the predicate evaluation plan the run used: the chosen
	// order, the per-node cost model, re-plan count and short-circuit
	// savings. Runs sharing a fleet-wide planner report the shared
	// (fleet-cumulative) statistics.
	Plan *plan.Report
	// InferenceCost is the priced simulated inference time the run spent:
	// every model invocation attempt at its tier's unit cost (relations: the
	// frames read times the object detector's unit cost).
	InferenceCost time.Duration
	// BudgetSkipped counts the clips skipped-and-flagged after the
	// inference budget ran out (zero when no budget is configured).
	BudgetSkipped int64
}

// FrameSequences converts the clip-level result sequences to frame
// intervals.
func (r *Result) FrameSequences() video.IntervalSet {
	ivs := make([]video.Interval, 0, r.Sequences.NumIntervals())
	for _, iv := range r.Sequences.Intervals() {
		ivs = append(ivs, r.Geometry.FrameRangeOfClips(iv))
	}
	return video.NewIntervalSet(ivs...)
}

// Predicate returns the stats for a predicate by name, or nil.
func (r *Result) Predicate(name string) *PredicateStats {
	for i := range r.Predicates {
		if r.Predicates[i].Name == name {
			return &r.Predicates[i]
		}
	}
	return nil
}

// Run processes the whole video and returns the result sequences — the
// batch entry point. For incremental streaming consumption use NewRun/Step.
//
// The run honours ctx: on deadline expiry or cancellation it stops between
// clips and returns the partial result covering the clips processed so far
// together with an *InterruptedError. A run whose flagged clips exceed the
// failure budget likewise returns its partial result and a *DegradedError.
func (e *Engine) Run(ctx context.Context, v detect.TruthVideo, q Query) (*Result, error) {
	return finish(e.newRun(ctx, v, q, nil))
}

// finish steps a freshly bound run to its end and returns its result (a
// failed bind's error passes through). As the batch entry points' tail it
// owns the run's pooled scratch: the scratch goes back to the pool only
// after Result() has materialised everything the caller sees, so nothing the
// caller holds aliases pooled memory.
func finish(r *Run, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	for r.Step() {
	}
	res, err := r.Result(), r.Err()
	r.release()
	return res, err
}

// predState is the per-predicate evaluation state of a run: one per distinct
// atom of the query, shared by every clause that mentions the atom.
type predState struct {
	atom Atom
	name string // the atom rendered, as reports and spans show it

	window int // occurrence units per clip (frames or shots)

	crit int // current critical value

	// Dynamic mode only: the background estimator and the process-wide
	// critical values crit is read from at its estimate.
	est   *kernel.Estimator
	table *scanstat.CriticalValues

	// recent holds the latest unbiased clip counts; the quantile gate
	// (nullQuantile) derives an admission threshold from it, keeping
	// the null-rate estimate robust to the events themselves.
	recent countRing

	// prev2/prev1 hold the last two unbiased counts so updates can be
	// applied one clip late with both temporal neighbours known: a count
	// feeds the estimator only when it and both neighbours are below the
	// gate threshold, excluding event boundaries from the null estimate.
	prev2, prev1 int
	lagSeen      int

	clipInd   []bool // indicator per processed clip
	rawClip   []bool // per clip: some scored unit reached the threshold
	evaluated int

	// Per-run observability: the clip-loop time charged to this predicate
	// (traced runs only; see Run.tick), occurrence units scored, and
	// critical-value refreshes applied (Dynamic mode).
	evalTime   time.Duration
	units      int
	recomputes int

	// Cascade accounting (empty slices for single-tier models): cumulative
	// units scored and units escalated per tier across the run, and the
	// planner's most recent tier decision — the run-local numbers behind the
	// tier:* span attributes.
	tierUnits     []int64
	tierEscalated []int64
	lastMode      plan.TierMode
}

// Run is an in-progress streaming evaluation over one video. It is not safe
// for concurrent use.
//
// Every query is evaluated as a CNF: a conjunction of clauses, each a
// disjunction of atoms (a basic query is the CNF of singleton clauses,
// FromQuery). There is one predState — and one planner node — per distinct
// atom; the clause tables say which clauses mention which atoms.
type Run struct {
	e    *Engine
	ctx  context.Context
	v    detect.TruthVideo
	q    Query
	cnf  CNF
	geom video.Geometry

	// preds holds the distinct atoms in declared order: first appearance,
	// which for a basic query is objects in query order then the action (the
	// action first under ActionFirst).
	preds []*predState

	// The clause table over pooled buffers: clause c mentions the atoms
	// clauseAtoms[clauseEnd[c]:clauseEnd[c+1]] (indices into preds;
	// clauseEnd[0] is 0). clauseSat and clauseLeft, one entry per clause, are
	// the per-clip state Step resets: whether the clause already holds, and
	// how many of its atoms are still to run.
	clauseEnd, clauseAtoms []int
	clauseSat              []bool
	clauseLeft             []int

	// planner owns the evaluation order over preds (cheapest expected cost
	// to reject first, re-planned as statistics drift; pinned to the
	// declared order under NoShortCircuit/ActionFirst/DeclaredOrder). Fleet
	// runs share one planner per query.
	planner *plan.Planner

	// everyClip samples every clip: all atoms run on all clips and all feed
	// the estimators (Config.NoShortCircuit, and ingestion). bootstrap is
	// the fully sampled prefix: bootstrapClips when an estimator can read
	// it (see bind), else 0. fullCounts reports whether sampled clips'
	// counts are read in full (see start); elsewhere an evaluation stops at
	// its decision. budget is the run's inference budget
	// (Config.InferenceBudget; ingestion has none).
	everyClip  bool
	bootstrap  int
	fullCounts bool
	budget     time.Duration

	numClips int
	nextClip int
	clipInd  []bool

	// Failure-model state: flagged marks processed clips skipped after
	// retry exhaustion; err latches the terminal error of the run.
	flagged      []bool
	flaggedCount int
	err          error

	// Inference-budget state: the simulated inference cost spent so far,
	// and the clips skipped-and-flagged after the budget ran out (planned
	// degradation — these never raise a DegradedError).
	budgetSpent   time.Duration
	budgetSkipped int64

	// lastAcc points at the account the most recent evaluate call filled
	// (nil when the predicate's model is single-tier), so Step can feed the
	// planner's escalation estimators without re-deriving it.
	lastAcc *detect.Account

	// Observability: the trace carried by the run's context (nil when the
	// caller attached none), the context's current span (the engine span's
	// parent in the assembled tree), the run's start time and the loop's
	// last clock read since then (traced runs only), and whether the run's
	// spans were already emitted (Result may be called repeatedly).
	trace        *obs.Trace
	parent       *obs.Span
	started      time.Time
	lastRead     time.Duration
	spansEmitted bool

	// scratch is the pooled per-run state this Run's slices point into. See
	// pool.go for the lifecycle.
	scratch *runScratch
}

// NewRun prepares a streaming evaluation of q over v. Critical values are
// initialised from the configured background probabilities; in Dynamic mode
// each predicate also gets a kernel estimator. The context is checked before
// every clip; a nil ctx means context.Background. The run charges the
// engine's meter with what it has spent whenever Result is called.
func (e *Engine) NewRun(ctx context.Context, v detect.TruthVideo, q Query) (*Run, error) {
	return e.newRun(ctx, v, q, nil)
}

// newRun is NewRun with an optional shared planner (fleet warm start). A
// nil or mismatched planner gets replaced by a fresh one for this run. The
// query is bound as FromQuery(q) would read — one singleton clause per
// predicate, in the declared order: objects in query order then the action,
// or the action first under ActionFirst — without materialising the CNF.
func (e *Engine) newRun(ctx context.Context, v detect.TruthVideo, q Query, pl *plan.Planner) (*Run, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r, err := e.bind(ctx, v, len(q.Objects)+1)
	if err != nil {
		return nil, err
	}
	r.q = q
	if e.cfg.ActionFirst {
		_, err = r.addClause(ActionAtom(q.Action))
	}
	for i := 0; err == nil && i < len(q.Objects); i++ {
		_, err = r.addClause(ObjectAtom(q.Objects[i]))
	}
	if err == nil && !e.cfg.ActionFirst {
		_, err = r.addClause(ActionAtom(q.Action))
	}
	if err != nil {
		r.release()
		return nil, err
	}
	r.start(pl)
	return r, nil
}

// bind acquires a pooled run over v with room for maxAtoms distinct atoms.
// The caller adds the query's clauses (addClause) and then calls start.
func (e *Engine) bind(ctx context.Context, v detect.TruthVideo, maxAtoms int) (*Run, error) {
	g := v.Geometry()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := acquireRun()
	r.e = e
	r.ctx = ctx
	r.v = v
	r.geom = g
	r.numClips = g.NumClips(v.NumFrames())
	r.everyClip = e.cfg.NoShortCircuit
	// Only an estimator reads the bootstrap prefix: which clips are sampled
	// never depends on what they held.
	r.bootstrap = 0
	if (e.hooks != nil && e.hooks.alwaysBootstrap) || e.estimates(r.numClips) {
		r.bootstrap = bootstrapClips
	}
	r.budget = e.cfg.InferenceBudget
	r.trace = obs.TraceFrom(ctx)
	r.parent = obs.SpanFrom(ctx)
	if r.trace != nil {
		r.started = time.Now()
	}
	r.scratch.ensurePreds(maxAtoms)
	r.resetLedger()
	return r, nil
}

// estimates reports whether an estimator can read the sampled counts of a
// run of numClips clips. Only an SVAQD estimator reads counts, and its
// quantile gate admits no update before its ring holds robustWindowClips
// sampled counts, one per clip at most: the first update lands on clip
// robustWindowClips at the earliest, so a shorter or equal run never makes
// one. The rule reads the mode and the length alone, before any detector
// runs.
func (e *Engine) estimates(numClips int) bool {
	return e.mode == Dynamic && numClips > robustWindowClips
}

// addClause appends one clause — a disjunction of atoms — to the run's
// query. Each distinct atom gets one predState, shared by every clause that
// mentions it; fresh reports whether every atom of this clause was new.
func (r *Run) addClause(atoms ...Atom) (fresh bool, err error) {
	fresh = true
	for _, a := range atoms {
		i := 0
		for i < len(r.preds) && !r.preds[i].atom.equal(a) {
			i++
		}
		if i < len(r.preds) {
			fresh = false
		} else {
			ps := &r.scratch.preds[i]
			if err := r.initPred(ps, a); err != nil {
				return false, err
			}
			r.preds = append(r.preds, ps)
		}
		r.clauseAtoms = append(r.clauseAtoms, i)
	}
	r.clauseEnd = append(r.clauseEnd, len(r.clauseAtoms))
	return fresh, nil
}

// start finishes binding: it sizes the per-clip clause state and attaches
// the planner — without a usable shared one, a fresh one (the only place
// planners are built) over the atoms priced at this run's geometry, pinned
// to the declared order when every atom runs on every clip anyway, under
// ActionFirst and under DeclaredOrder.
func (r *Run) start(pl *plan.Planner) {
	// Sampled counts are read in full where an estimator reads them, and
	// under everyClip, which reads every atom's raw indicator and which
	// EvaluateTypes sets only after bind.
	r.fullCounts = r.everyClip || r.e.estimates(r.numClips)
	r.clauseSat = zeroed(r.clauseSat, len(r.clauseEnd)-1)
	r.clauseLeft = grow(r.clauseLeft, len(r.clauseEnd)-1)
	if pl == nil || pl.Len() != len(r.preds) {
		nodes := make([]plan.Node, len(r.preds))
		for i, ps := range r.preds {
			nodes[i] = r.e.planNode(ps.atom, r.geom)
		}
		pinned := r.everyClip || r.e.cfg.ActionFirst || r.e.cfg.DeclaredOrder
		pl = plan.New(nodes, plan.Options{Pinned: pinned})
	}
	r.planner = pl
}

// clause returns the atoms (indices into preds) of clause c.
func (r *Run) clause(c int) []int {
	return r.clauseAtoms[r.clauseEnd[c]:r.clauseEnd[c+1]]
}

// undecided reports whether some clause that mentions atom i does not hold
// yet on the current clip — otherwise evaluating the atom cannot change the
// clip's outcome (the OR short-circuit; a singleton clause is always
// undecided until its own atom runs).
func (r *Run) undecided(i int) bool {
	for c, sat := range r.clauseSat {
		if !sat && slices.Contains(r.clause(c), i) {
			return true
		}
	}
	return false
}

// settle folds atom i's indicator into the clip's clause state and reports
// whether that rejects the clip: some clause has run out of atoms without
// one holding (the AND short-circuit).
func (r *Run) settle(i int, ind bool) (rejected bool) {
	for c := range r.clauseSat {
		if !slices.Contains(r.clause(c), i) {
			continue
		}
		r.clauseLeft[c]--
		if ind {
			r.clauseSat[c] = true
		} else if r.clauseLeft[c] == 0 && !r.clauseSat[c] {
			rejected = true
		}
	}
	return rejected
}

// planNode describes one atom to the planner: its per-clip prior cost is
// its occurrence-unit window times the detector's unit cost (a relation
// scores every frame with the object detector), and object and action atoms
// carry their model's cascade tiers.
func (e *Engine) planNode(a Atom, g video.Geometry) plan.Node {
	d := e.detector(a.Kind)
	n := plan.Node{Name: a.String(), Window: g.FramesPerClip()}
	if a.Kind == ActionPredicate {
		n.Window = g.ShotsPerClip
	}
	if a.Kind != RelationPredicate {
		n.Tiers = d.costs
	}
	n.PriorCost = time.Duration(n.Window) * d.unitCost
	return n
}

// initPred (re)builds the evaluation state for one atom in a pooled slot:
// its critical value — the static one at p0, or in Dynamic mode the shared
// table's at its kernel estimator's prior. The action's occurrence unit is
// the shot; objects and relations are scored per frame. Slice capacities and
// a bandwidth-matching estimator already in the slot are reused.
func (r *Run) initPred(ps *predState, a Atom) error {
	cfg := r.e.cfg
	w := r.geom.FramesPerClip()
	p0, bw := cfg.P0Object, cfg.BandwidthFrames
	if a.Kind == ActionPredicate {
		w = r.geom.ShotsPerClip
		p0, bw = cfg.P0Action, cfg.BandwidthShots
	}
	ps.atom, ps.name, ps.window = a, a.String(), w
	ps.rawClip = zeroed(ps.rawClip, r.numClips)
	ps.clipInd = ps.clipInd[:0]
	ps.prev2, ps.prev1, ps.lagSeen = 0, 0, 0
	ps.evaluated = 0
	ps.evalTime, ps.units, ps.recomputes = 0, 0, 0
	ps.tierUnits, ps.tierEscalated = ps.tierUnits[:0], ps.tierEscalated[:0]
	ps.lastMode = plan.TierSingle
	if tiers := len(r.e.detector(a.Kind).chain.Tiers()); tiers >= 2 && a.Kind != RelationPredicate {
		ps.tierUnits = zeroed(ps.tierUnits, tiers)
		ps.tierEscalated = zeroed(ps.tierEscalated, tiers)
	}
	if r.e.mode != Dynamic {
		ps.est, ps.table = nil, nil
		ps.crit = scanstat.CriticalValue(w, p0, cfg.HorizonClips, cfg.Alpha)
		return nil
	}
	// A clip count is the number of positive units among the clip's w.
	ps.recent.reset(robustWindowClips, w)
	if ps.est != nil && ps.est.Bandwidth() == bw {
		if err := ps.est.Reset(p0); err != nil {
			return err
		}
	} else {
		est, err := kernel.NewEstimator(bw, p0)
		if err != nil {
			return err
		}
		ps.est = est
	}
	// The table is shared process-wide: every run at this configuration —
	// all videos of a fleet, all concurrent server queries — reads the one
	// built on the process's first use of it.
	ps.table = scanstat.Shared(w, cfg.HorizonClips, cfg.Alpha, cfg.CritGrid)
	ps.crit = ps.table.At(ps.est.P())
	return nil
}

// NumClips returns the number of clips the run will process.
func (r *Run) NumClips() int { return r.numClips }

// Processed returns the number of clips processed so far.
func (r *Run) Processed() int { return r.nextClip }

// Err returns the terminal error of the run: an *InterruptedError when the
// context ended mid-stream, a *DegradedError when flagged clips exceeded the
// failure budget, nil while the run is healthy. Once set, Step returns
// false.
func (r *Run) Err() error { return r.err }

// Flagged returns the clips skipped so far after detector retry exhaustion.
func (r *Run) Flagged() video.IntervalSet { return video.FromIndicator(r.flagged) }

// Step processes the next clip of the stream; it returns false when the
// stream is exhausted, the context has ended, or the run has degraded past
// the failure budget (check Err). This is Algorithm 1/3's main loop body —
// the only clip loop in the engine: evaluate the clip indicator (Algorithm
// 2, generalised to CNF by footnotes 2-4) and, in Dynamic mode, fold the
// clip's observations into each evaluated atom's background estimate and
// refresh its critical value.
//
// A clip holds when every clause does, and a clause when any of its atoms'
// indicators is positive. On an unsampled clip an atom is skipped as soon as
// it cannot change the outcome: the clip is already rejected (a clause ran
// out of atoms — all a basic query's singleton clauses can trigger), or
// every clause mentioning the atom already holds (OR-groups only). Within
// an atom that does run, the clip's units are scored only until count ≥
// crit is decided — the same short-circuit, one level down — unless an
// estimator reads the count (a sampled clip of a fullCounts run).
//
// A detector invocation that still fails after the configured retries does
// not abort the run: the clip is flagged, its indicator forced negative, and
// processing continues — until the flagged fraction exceeds the failure
// budget, at which point the run stops with a DegradedError.
func (r *Run) Step() bool {
	if r.err != nil || r.nextClip >= r.numClips {
		return false
	}
	if cerr := r.ctx.Err(); cerr != nil {
		r.err = &InterruptedError{Processed: r.nextClip, Total: r.numClips, Err: cerr}
		return false
	}
	c := r.nextClip
	r.nextClip++

	// Inference-budget gate, at clip granularity: once the spend reaches
	// the budget the remaining clips are skipped-and-flagged without
	// touching a detector — graceful degradation, not an error, so the
	// flagged clips stay out of the failure budget.
	if r.budget > 0 && r.budgetSpent >= r.budget {
		for _, ps := range r.preds {
			ps.clipInd = append(ps.clipInd, false)
		}
		r.clipInd = append(r.clipInd, false)
		r.flagged = append(r.flagged, true)
		r.budgetSkipped++
		return true
	}

	// On a sampled clip — every estimatorSampleEvery-th, plus the run's
	// bootstrap prefix, both fixed at bind — all atoms are evaluated
	// unconditionally; only these unbiased evaluations may feed background
	// estimators and the planner's cost model (evaluations admitted by
	// short-circuiting see a stream pre-filtered by the atoms that ran
	// earlier — a biased sample under correlation). A sampled clip is
	// scanned in full only in a run that reads its counts (fullCounts);
	// every other evaluation reads only the indicator, so it stops once
	// count ≥ crit is decided, and the planner observes that decided cost.
	sampled := r.sampledClip(c)
	full := (sampled && r.fullCounts) || (r.e.hooks != nil && r.e.hooks.fullScan)

	clear(r.clauseSat)
	for ci := range r.clauseLeft {
		r.clauseLeft[ci] = len(r.clause(ci))
	}
	rejected := false
	var clipErr error // detection failure flagging this clip
	objectFrames := 0 // the longest prefix of the clip's frames an evaluation read
	modes := r.modesBuf()
	for _, idx := range r.planner.AppendDecisions(r.orderBuf(), modes) {
		ps := r.preds[idx]
		failed := clipErr != nil || r.err != nil
		if failed || (!sampled && (rejected || !r.undecided(idx))) {
			if !failed {
				// Spared by short-circuit (not by a failure): credit the
				// planner's savings ledger.
				r.planner.Skip(idx)
			}
			ps.clipInd = append(ps.clipInd, false)
			continue
		}
		need := 0
		if !full {
			need = ps.crit
		}
		count, cost, err := r.evaluate(ps, c, modes[idx], need, &objectFrames)
		r.tick(ps)
		r.budgetSpent += cost
		if err != nil {
			// Keep per-atom indicator alignment, then decide whether this
			// is an interruption (context ended during retries) or a
			// skip-and-flag detection failure.
			ps.clipInd = append(ps.clipInd, false)
			if r.ctx.Err() != nil {
				r.err = &InterruptedError{Processed: c, Total: r.numClips, Err: r.ctx.Err()}
			} else {
				clipErr = err
			}
			continue
		}
		ps.evaluated++
		ind := count >= ps.crit
		if sampled {
			// The observed cost is the evaluation's priced inference time,
			// per attempt at each tier's unit cost — the simulator's
			// equivalent of measured detector latency.
			r.planner.Observe(idx, !ind, cost)
			if r.lastAcc != nil {
				r.planner.ObserveTiers(idx, r.lastAcc.Units, r.lastAcc.Escalated)
			}
			if full && ps.est != nil {
				r.learn(ps, count)
			}
		}
		ps.clipInd = append(ps.clipInd, ind)
		if r.settle(idx, ind) {
			rejected = true
		}
	}
	healthy := clipErr == nil && r.err == nil
	if sampled && healthy {
		r.planner.EndClip()
	}
	// Every atom either ran or was skipped because it could not matter, so
	// a healthy clip that no clause rejected satisfies them all.
	r.clipInd = append(r.clipInd, healthy && !rejected)
	r.flagged = append(r.flagged, clipErr != nil)
	if clipErr != nil {
		r.recordFlagged(clipErr)
		r.flaggedCount++
		if float64(r.flaggedCount) > r.e.cfg.FailureBudget*float64(r.numClips) {
			r.err = &DegradedError{
				Flagged: r.flaggedCount, Processed: r.nextClip, Total: r.numClips,
				Budget: r.e.cfg.FailureBudget, Err: clipErr,
			}
		}
	}
	return true
}

// sampledClip reports whether clip c is in the unbiased sample every atom
// is evaluated on in full: the run's bootstrap prefix, then every
// estimatorSampleEvery-th clip, or every clip when everyClip is set.
func (r *Run) sampledClip(c int) bool {
	return r.everyClip || c < r.bootstrap || c%estimatorSampleEvery == 0
}

// since is the clip loop's clock: a traced run reads it once per
// evaluation (tick) and once more for its engine span; an untraced run
// never. Tests count its reads.
var since = time.Since

// tick charges the clip-loop time since the previous evaluation (the first
// time, since the run was bound) to ps, on traced runs only, with one
// monotonic read: what the loop does between two evaluations — planning,
// gating, settling, and a streaming caller's own time between Steps — is
// counted in the next one, so the predicate spans split the run between
// them.
func (r *Run) tick(ps *predState) {
	if r.trace == nil {
		return
	}
	now := since(r.started)
	ps.evalTime += now - r.lastRead
	r.lastRead = now
}

// learn feeds one unbiased clip count, read in full, into the predicate's
// background estimation machinery: the robust quantile gate plus delayed
// neighbourhood exclusion. Each admitted count moves the estimate, and the
// critical value follows it: crit is re-read from the shared table at the
// new estimate, and a change counts as a recompute.
//
// The gate threshold is the nullQuantile-quantile of the recent unbiased
// counts plus a binomial slack of about two standard deviations: the
// quantile locates the majority (background) behaviour even when the current
// estimate is badly off, and the slack keeps the admitted sample covering
// essentially the whole null distribution so the estimate is not censored
// downwards. Updates run one clip late so both temporal neighbours of a
// count are known: a count feeds the estimator only when it and both
// neighbours fall below the threshold, which keeps the partially covered
// boundary clips of genuine events (whose counts are individually
// indistinguishable from noise) out of the null estimate. During warm-up
// nothing is admitted and the prior holds.
func (r *Run) learn(ps *predState, count int) {
	if h := r.e.hooks; h != nil && h.learned != nil {
		h.learned(ps.atom, r.nextClip-1, count)
	}
	thr, ready := r.gateThreshold(ps)
	ps.recent.push(count) // after the threshold, which must not see this count

	defer func() {
		ps.prev2, ps.prev1 = ps.prev1, count
		ps.lagSeen++
	}()
	if !ready || ps.lagSeen < 2 {
		return
	}
	if ps.prev1 <= thr && ps.prev2 <= thr && count <= thr {
		ps.est.TickN(ps.window, ps.prev1)
		if h := r.e.hooks; h != nil && h.ticked != nil {
			h.ticked(r.nextClip - 1)
		}
		if crit := ps.table.At(ps.est.P()); crit != ps.crit {
			ps.crit = crit
			ps.recomputes++
		}
	}
}

// gateThreshold derives the admission threshold from the recent counts.
// It is only ready once the ring is full: on a partially filled ring a
// single event occurrence could dominate the quantile, poisoning the null
// estimate with event counts that a short stream never forgets.
func (r *Run) gateThreshold(ps *predState) (thr int, ready bool) {
	q, ready := ps.recent.quantile(nullQuantile)
	if !ready {
		return 0, false
	}
	// Rate implied by the quantile (with a light quarter-count prior so a
	// zero quantile still grants some slack), then ~2 sd of binomial slack.
	// A heavier prior would inflate the implied rate so much on small
	// windows (shots-per-clip can be as low as 2) that the threshold stops
	// excluding anything.
	w := float64(ps.window)
	pt := (float64(q) + 0.25) / (w + 0.5)
	slack := int(math.Ceil(2 * math.Sqrt(w*pt*(1-pt))))
	return q + slack, true
}

// countRing is the quantile gate's memory: the latest clip counts in a
// ring, and hist, their histogram by count (hist[c] is how many ring
// entries equal c), kept in step with the ring. A clip count lies in
// [0, window], so a quantile is a walk over at most window+1 bins — not a
// copy and a sort of the ring once per clip per predicate.
type countRing struct {
	ring      []int
	pos, seen int
	hist      []int
}

// reset empties the gate for a ring of n counts, each in [0, maxCount],
// reusing the slices' capacity. A pooled ring's stale entries are never
// read: push overwrites a slot before evicting from it, and quantile waits
// until every slot has been written.
func (g *countRing) reset(n, maxCount int) {
	g.ring = grow(g.ring, n)
	g.hist = zeroed(g.hist, maxCount+1)
	g.pos, g.seen = 0, 0
}

// push records one count, evicting the oldest once the ring is full.
func (g *countRing) push(count int) {
	if g.seen >= len(g.ring) {
		g.hist[g.ring[g.pos]]--
	}
	g.ring[g.pos] = count
	g.hist[count]++
	g.pos = (g.pos + 1) % len(g.ring)
	g.seen++
}

// quantile returns the q-quantile of the ring's counts — the element at
// index ⌊q·n⌋ of the counts sorted ascending, the last one for q = 1 — and
// whether the ring is full.
func (g *countRing) quantile(q float64) (int, bool) {
	n := len(g.ring)
	if n == 0 || g.seen < n {
		return 0, false
	}
	idx := min(int(q*float64(n)), n-1)
	c := 0
	for below := g.hist[0]; below <= idx; below += g.hist[c] {
		c++
	}
	return c, true
}

// entryTier maps the planner's tier decision to the cascade entry index.
func entryTier(mode plan.TierMode, tiers int) int {
	if mode == plan.TierAccurate {
		return tiers - 1
	}
	return 0
}

// evaluate runs the detector over the clip's occurrence units for one
// predicate, charges the run's ledger, and returns the positive count
// together with the evaluation's priced inference cost: every model is
// priced per attempt, so retries and the attempts spent on a unit that
// finally fails are paid for. Cascaded models execute the planner's tier
// decision (mode). need > 0 is the critical value of an evaluation whose
// count nothing reads (see Step): the scoring stops once count ≥ need is
// decided, and the count it returns is then only that indicator's witness.
// need ≤ 0 scans the clip in full and records its raw indicator. A detector
// invocation that fails after retries aborts the clip's evaluation with the
// error (the caller flags the clip); the cost spent up to the failure is
// still reported so the budget ledger stays honest.
//
// The inferences charged are the units read: the shots of an action
// evaluation and, since one object-detector inference per frame covers
// every type, the frames past *frames, the longest prefix of the clip an
// earlier object or relation evaluation read. An evaluation that stops at
// its decision read the units before the stop; a full or failed one, the
// whole clip.
func (r *Run) evaluate(ps *predState, clip int, mode plan.TierMode, need int, frames *int) (int, time.Duration, error) {
	r.lastAcc = nil
	kind, name := ps.atom.Kind, ps.atom.Name
	d := r.e.detector(kind)
	units := r.geom.FrameRangeOfClip(clip)
	if kind == ActionPredicate {
		units = r.geom.ShotRangeOfClip(clip)
	}
	acc := &r.scratch.acc
	if kind == RelationPredicate {
		// Footnote 2: a binary per-frame output derived from the detections
		// of the two operand types, read — and retried, and priced per
		// attempt — like any object inference over the clip's frames. Its
		// two operand reads cannot stop at a frame without interleaving, so
		// a relation scans the clip in full.
		ev := &r.scratch.relEvents
		acc.Reset(1)
		count, err := detect.RelationPositives(r.ctx, r.e.models.Objects, r.v, detect.Relation(name), ps.atom.Args[0], ps.atom.Args[1],
			units, &ev[0], &ev[1], nil, r.e.cfg.Retry, acc)
		if need <= 0 {
			ps.rawClip[clip] = count > 0
		}
		ps.units += int(acc.Units[0])
		r.charge(ps.atom, clip, readFrames(units.Len(), frames), acc)
		return count, acc.Cost, err
	}
	// One scoring call for every model: a plain model is a one-tier chain,
	// a cascade runs from the planner's entry tier. The account is the
	// evaluation's whole ledger — its price, the planner's tier statistics
	// and the meter's counters all come from it. Nothing here reads a score
	// but thresholdUnits, so the deciding tier scores at the threshold and
	// may return only the side of it each score falls on.
	scores, tiers := r.scoreBuf(units.Len()), d.chain.Tiers()
	acc.Reset(len(tiers))
	scored, err := d.chain.Score(r.ctx, r.v, name, units.Start, entryTier(mode, len(tiers)), scores, d.threshold, need, r.e.cfg.Retry, acc)
	for _, u := range acc.Units {
		ps.units += int(u)
	}
	if len(tiers) >= 2 {
		for t := range tiers {
			ps.tierUnits[t] += acc.Units[t]
			ps.tierEscalated[t] += acc.Escalated[t]
		}
		ps.lastMode = mode
		r.lastAcc = acc
	}
	read := units.Len()
	if err == nil {
		read = scored
	}
	if kind == ObjectPredicate {
		read = readFrames(read, frames)
	}
	r.charge(ps.atom, clip, read, acc)
	// A failed clip counts nothing, but the units scored before the failure
	// still make its raw indicator.
	count := thresholdUnits(scores[:scored], d.threshold)
	if need <= 0 {
		ps.rawClip[clip] = count > 0
	}
	if err != nil {
		count = 0
	}
	return count, acc.Cost, err
}

// readFrames returns how many of the first read frames of a clip are not
// yet charged, when the longest prefix charged so far is *frames, and
// extends that prefix.
func readFrames(read int, frames *int) int {
	fresh := max(read-*frames, 0)
	*frames += fresh
	return fresh
}

// thresholdUnits returns how many scores reach the threshold.
func thresholdUnits(scores []float64, threshold float64) int {
	count := 0
	for _, score := range scores {
		if score >= threshold {
			count++
		}
	}
	return count
}

// charge adds the inference units (frames for objects and relations, shots
// for actions) and account of atom a's evaluation on clip to the run's
// ledger.
func (r *Run) charge(a Atom, clip, inferences int, acc *detect.Account) {
	if h := r.e.hooks; h != nil && h.evaluated != nil {
		h.evaluated(a, clip, inferences, acc)
	}
	if r.e.cfg.Meter == nil {
		return
	}
	s := r.scratch
	if a.Kind == ActionPredicate {
		s.shots += inferences
	} else {
		s.frames += inferences
	}
	s.ledger[a.Kind].Add(acc)
}

// flush hands the run's ledger to the engine's meter — one Record per
// chain — and empties it, so flushing again adds only what was charged
// since. Result and release both flush: a batch run charges the meter on
// every exit, a streaming one at each Result.
func (r *Run) flush() {
	m, s := r.e.cfg.Meter, r.scratch
	if m == nil {
		return
	}
	m.AddObjectFrames(s.frames)
	m.AddActionShots(s.shots)
	m.Record(detect.KindObject, r.e.obj.chain.Tiers(), &s.ledger[ObjectPredicate])
	m.Record(detect.KindAction, r.e.act.chain.Tiers(), &s.ledger[ActionPredicate])
	m.Record(detect.KindObject, nil, &s.ledger[RelationPredicate]) // relations read the object detector
	r.resetLedger()
}

// resetLedger empties the run's ledger, each account shaped for its chain: a
// relation's reads are one tier.
func (r *Run) resetLedger() {
	s := r.scratch
	s.frames, s.shots = 0, 0
	s.ledger[ObjectPredicate].Reset(len(r.e.obj.chain.Tiers()))
	s.ledger[ActionPredicate].Reset(len(r.e.act.chain.Tiers()))
	s.ledger[RelationPredicate].Reset(1)
}

// recordFlagged charges one skipped-and-flagged clip to the meter,
// attributed to the detector kind whose retries were exhausted.
func (r *Run) recordFlagged(clipErr error) {
	m := r.e.cfg.Meter
	if m == nil || clipErr == nil {
		return
	}
	kind := detect.KindObject
	var de *detect.DetectionError
	if errors.As(clipErr, &de) {
		kind = de.Kind
	}
	m.RecordFlagged(kind)
}

// Sequences returns the result sequences over the clips processed so far.
func (r *Run) Sequences() video.IntervalSet { return video.FromIndicator(r.clipInd) }

// Result finalises the run. It may be called at any point; the result covers
// the clips processed so far, and the meter is charged with what they cost.
func (r *Run) Result() *Result {
	r.flush()
	res := &Result{
		Query:     r.q,
		CNF:       r.cnf,
		Mode:      r.e.mode,
		Geometry:  r.geom,
		NumClips:  r.numClips,
		Processed: r.nextClip,
		Sequences: r.Sequences(),
		Flagged:   r.Flagged(),
	}
	// Report in first-appearance order — for a basic query objects then the
	// action, whatever order the planner (or ActionFirst) evaluated them in.
	ordered := r.preds
	if r.e.cfg.ActionFirst && r.q.Action != "" {
		ordered = append(append([]*predState(nil), r.preds[1:]...), r.preds[0])
	}
	res.Predicates = make([]PredicateStats, len(ordered))
	for i, ps := range ordered {
		res.Predicates[i] = PredicateStats{
			Name:           ps.name,
			Kind:           ps.atom.Kind,
			Clips:          video.FromIndicator(ps.clipInd),
			RawClips:       video.FromIndicator(ps.rawClip),
			Background:     r.background(ps),
			Critical:       ps.crit,
			EvaluatedClips: ps.evaluated,
		}
	}
	res.Plan = r.planner.Report()
	res.InferenceCost = r.budgetSpent
	res.BudgetSkipped = r.budgetSkipped
	if r.budget > 0 {
		res.Plan.Budget = &plan.BudgetReport{
			LimitMS:      float64(r.budget) / 1e6,
			SpentMS:      float64(r.budgetSpent) / 1e6,
			SkippedClips: r.budgetSkipped,
			Exhausted:    r.budgetSpent >= r.budget,
		}
	}
	r.emitSpans(ordered, res.Plan)
	return res
}

// emitSpans surfaces the run's accounting on the context's trace, once: an
// engine-level span covering the whole run plus one span per predicate whose
// duration is the predicate's share of the clip loop (tick) — its detector
// evaluations and the loop work leading up to each (the paper's per-stage
// cost decomposition — short-circuit savings and SVAQD recomputation are
// readable directly off the spans). The predicate spans sum to at most the
// engine span.
func (r *Run) emitSpans(preds []*predState, rep *plan.Report) {
	if r.trace == nil || r.spansEmitted {
		return
	}
	r.spansEmitted = true
	eng := r.trace.AddSpanUnder(r.parent, "engine.run", r.started, since(r.started))
	eng.SetAttr("mode", r.e.mode.String())
	eng.SetAttr("clauses", len(r.clauseSat))
	eng.SetAttr("clips_processed", r.nextClip)
	eng.SetAttr("num_clips", r.numClips)
	eng.SetAttr("flagged_clips", r.flaggedCount)
	if r.budget > 0 {
		eng.SetAttr("tier:budget_spent_ms", float64(r.budgetSpent)/1e6)
		eng.SetAttr("tier:budget_skipped_clips", r.budgetSkipped)
	}
	sp := r.trace.AddSpanUnder(eng, "plan.order", r.started, 0)
	sp.SetAttr("adaptive", rep.Adaptive)
	if rep.Tiered {
		sp.SetAttr("tiered", true)
	}
	sp.SetAttr("order", strings.Join(rep.Order, ","))
	sp.SetAttr("replans", rep.Replans)
	sp.SetAttr("skipped_evaluations", rep.SkippedEvaluations)
	sp.SetAttr("saved_cost_ms", rep.SavedCostMS)
	for _, ps := range preds {
		sp := r.trace.AddSpanUnder(eng, "predicate:"+ps.name, r.started, ps.evalTime)
		sp.SetAttr("kind", ps.atom.Kind.label())
		sp.SetAttr("evaluated_clips", ps.evaluated)
		sp.SetAttr("units_scored", ps.units)
		sp.SetAttr("k_crit", ps.crit)
		sp.SetAttr("background", r.background(ps))
		if r.e.mode == Dynamic {
			sp.SetAttr("k_crit_recomputes", ps.recomputes)
		}
		if len(ps.tierUnits) > 0 {
			var units, escalated int64
			for t := range ps.tierUnits {
				units += ps.tierUnits[t]
				escalated += ps.tierEscalated[t]
			}
			sp.SetAttr("tier:mode", ps.lastMode.String())
			sp.SetAttr("tier:units", units)
			sp.SetAttr("tier:escalated", escalated)
		}
	}
}

func (r *Run) background(ps *predState) float64 {
	if ps.est != nil {
		return ps.est.P()
	}
	if ps.atom.Kind == ActionPredicate {
		return r.e.cfg.P0Action
	}
	return r.e.cfg.P0Object
}
