// Package plan implements the cost-based predicate planner used by the
// online engine (core) and the offline ranker (rank).
//
// The paper evaluates a query's predicates sequentially with
// short-circuiting (Algorithm 2), so the total detector cost of a
// conjunction is dominated by whichever predicates run early: the first
// predicate is evaluated on every clip, and each later one only on the
// clips every earlier predicate accepted. Because clip truth is a pure
// conjunction, any evaluation order produces the same result sequences —
// ordering is a cost lever, never a correctness one.
//
// A Planner holds one node per predicate with a live cost model: the
// expected cost of one evaluation (seeded from the detector's priced unit
// cost, refined from observed evaluations) and a rejection-rate estimate
// (seeded from a prior, refined from the unbiased clip indicators the
// engine already tracks). It orders nodes cheapest-expected-cost-to-reject
// first — ascending cost/P(reject), the classic selectivity×cost ordering —
// and re-plans every ReplanEvery observed clips as the estimates drift,
// mirroring how SVAQD re-estimates its background probabilities.
//
// Statistics must be fed only from unbiased evaluations (clips on which
// every predicate ran): under short-circuiting, the clips a late predicate
// sees are pre-filtered by the earlier ones, which would bias its observed
// rejection rate downwards for correlated predicates. The engine already
// maintains such a sampling schedule for SVAQD's estimators and reuses it
// for the planner.
//
// A Planner is safe for concurrent use, so a fleet evaluation can share one
// warm-started cost model per query across all its per-video runs.
package plan

import (
	"sort"
	"sync"
	"time"
)

// DefaultReplanEvery is the re-planning cadence (in observed unbiased
// clips) when Options.ReplanEvery is zero.
const DefaultReplanEvery = 32

// defaultPriorReject seeds the rejection-rate estimate when a Node declares
// none: with no information, assume a coin flip.
const defaultPriorReject = 0.5

// Node describes one predicate to the planner.
type Node struct {
	// Name identifies the predicate in reports and spans.
	Name string
	// PriorCost is the expected cost of evaluating the predicate once on
	// one clip before anything has been observed — for the engine, the
	// clip's occurrence-unit window times the detector's priced unit cost.
	PriorCost time.Duration
	// PriorReject seeds the rejection-rate estimate in (0,1]; zero means
	// 0.5 (no prior selectivity information).
	PriorReject float64
	// Tiers describes the predicate's detector cascade, cheapest tier
	// first; empty (or a single entry) for single-model predicates. With
	// two or more tiers the planner prices the predicate per tier and
	// decides between entering the cascade and jumping straight to the
	// accurate tier (see TierMode).
	Tiers []TierCost
	// Window is the number of occurrence units one evaluation of this
	// predicate scores — the multiplier between per-unit tier costs and
	// per-evaluation node costs. Only consulted for tiered nodes.
	Window int
}

// TierCost describes one tier of a cascaded detector to the planner.
type TierCost struct {
	// Name is the tier model's name.
	Name string
	// UnitCost is the tier's inference cost per occurrence unit.
	UnitCost time.Duration
	// PriorEscalate seeds the tier's escalation-rate estimate: the prior
	// probability a unit scored here escalates to the next tier. Zero for
	// the last tier.
	PriorEscalate float64
}

// TierMode is the planner's tier decision for one predicate.
type TierMode int

const (
	// TierSingle marks a predicate without a cascade: run its model as-is.
	TierSingle TierMode = iota
	// TierCascade enters the cascade at the cheapest tier, escalating as
	// the bands dictate.
	TierCascade
	// TierAccurate jumps straight to the most accurate tier — the right
	// call when escalations are so common the cheap tier is pure overhead.
	TierAccurate
)

// String names the mode as it appears in EXPLAIN output and span
// attributes.
func (m TierMode) String() string {
	switch m {
	case TierCascade:
		return "cascade"
	case TierAccurate:
		return "accurate"
	default:
		return "single"
	}
}

// Options tunes a Planner.
type Options struct {
	// Pinned keeps the declared order: the planner still gathers
	// statistics and reports them, but Order never deviates — the
	// compatibility/ablation mode (the engine pins the order under
	// NoShortCircuit, ActionFirst and DeclaredOrder).
	Pinned bool
	// ReplanEvery is the number of observed unbiased clips between
	// re-planning rounds; zero or negative means DefaultReplanEvery.
	ReplanEvery int
}

// nodeState is the live cost model of one predicate.
type nodeState struct {
	name        string
	priorCost   float64 // seconds per evaluation, before observation
	priorReject float64

	evals   int64   // unbiased evaluations observed
	rejects int64   // of which rejected the clip
	costSum float64 // seconds across observed evaluations
	skips   int64   // evaluations skipped by short-circuit

	// Tiered nodes carry per-tier escalation estimators and the planner's
	// current tier decision; single-model nodes leave tiers empty and mode
	// at TierSingle.
	tiers  []tierState
	window float64
	mode   TierMode
}

// tierState is the live escalation model of one cascade tier.
type tierState struct {
	name          string
	unitCost      float64 // seconds per unit
	priorEscalate float64

	units     int64 // units observed scored at this tier
	escalated int64 // of which escalated past it
}

// escalateRate is the Laplace-smoothed escalation-rate estimate, strictly
// inside (0,1) so expected-cost products stay finite and the prior carries
// early decisions.
func (t *tierState) escalateRate() float64 {
	const pseudo = 2.0
	return (float64(t.escalated) + pseudo*t.priorEscalate) / (float64(t.units) + pseudo)
}

// tiered reports whether the node has a real cascade to decide over.
func (n *nodeState) tiered() bool { return len(n.tiers) >= 2 }

// expectedUnitCost is the expected seconds per occurrence unit when
// evaluation enters the cascade at tier from: the entry tier is always
// paid, and each deeper tier is paid with the product of the escalation
// rates above it.
func (n *nodeState) expectedUnitCost(from int) float64 {
	p := 1.0
	total := 0.0
	for i := from; i < len(n.tiers); i++ {
		total += p * n.tiers[i].unitCost
		if i < len(n.tiers)-1 {
			p *= n.tiers[i].escalateRate()
		}
	}
	return total
}

// entryTier is the cascade entry the current mode dictates.
func (n *nodeState) entryTier() int {
	if n.mode == TierAccurate {
		return len(n.tiers) - 1
	}
	return 0
}

// cost is the current per-evaluation cost estimate in seconds. Tiered
// nodes are priced from the per-tier escalation model under the current
// tier decision — the expected cost to *decide* a unit, not merely the
// cost of one model pass — so the ordering key and the savings ledger both
// see through the cascade.
func (n *nodeState) cost() float64 {
	if n.tiered() {
		return n.window * n.expectedUnitCost(n.entryTier())
	}
	if n.evals == 0 {
		return n.priorCost
	}
	return n.costSum / float64(n.evals)
}

// rejectRate is the Laplace-smoothed rejection-rate estimate: two
// pseudo-observations at the prior rate keep early estimates near the prior
// and the rate strictly inside (0,1) so cost/rate is always finite.
func (n *nodeState) rejectRate() float64 {
	const pseudo = 2.0
	return (float64(n.rejects) + pseudo*n.priorReject) / (float64(n.evals) + pseudo)
}

// costToReject is the ordering key: expected cost paid per rejection
// obtained. Evaluating ascending in this key minimises the expected cost of
// deciding a conjunctive clip under short-circuiting.
func (n *nodeState) costToReject() float64 {
	return n.cost() / n.rejectRate()
}

// Planner orders predicate nodes cheapest-expected-cost-to-reject first and
// re-plans as its statistics drift. Safe for concurrent use.
type Planner struct {
	mu    sync.Mutex
	opts  Options
	nodes []nodeState
	order []int

	replans          int
	clipsSinceReplan int
	observedClips    int64
	savedCost        float64 // seconds of evaluation avoided by short-circuit
	skipped          int64   // evaluations avoided by short-circuit
}

// New builds a planner over the declared node list. The initial order is
// computed from the priors alone (and equals the declared order when the
// priors do not discriminate, since ties preserve declared positions).
func New(nodes []Node, opts Options) *Planner {
	if opts.ReplanEvery <= 0 {
		opts.ReplanEvery = DefaultReplanEvery
	}
	p := &Planner{opts: opts, nodes: make([]nodeState, len(nodes)), order: make([]int, len(nodes))}
	for i, n := range nodes {
		pr := n.PriorReject
		if pr <= 0 || pr > 1 {
			pr = defaultPriorReject
		}
		ns := nodeState{name: n.Name, priorCost: n.PriorCost.Seconds(), priorReject: pr}
		if len(n.Tiers) >= 2 {
			ns.tiers = make([]tierState, len(n.Tiers))
			for t, tc := range n.Tiers {
				ns.tiers[t] = tierState{name: tc.Name, unitCost: tc.UnitCost.Seconds(), priorEscalate: clampRate(tc.PriorEscalate)}
			}
			ns.window = float64(max(n.Window, 1))
		}
		p.nodes[i] = ns
		p.order[i] = i
	}
	p.reorder()
	return p
}

// clampRate clamps a prior probability into [0, 1].
func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Len returns the number of nodes.
func (p *Planner) Len() int { return len(p.nodes) }

// Order returns a copy of the current evaluation order: positions into the
// declared node list, cheapest expected cost to reject first.
func (p *Planner) Order() []int {
	return p.AppendOrder(nil)
}

// AppendOrder appends the current evaluation order to dst — Order without
// the per-call allocation, for callers that consult the planner every clip
// and hold their own buffer.
func (p *Planner) AppendOrder(dst []int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(dst, p.order...)
}

// Observe folds one unbiased evaluation of node i into the cost model:
// whether it rejected its clip, and what the evaluation cost. Callers must
// only report evaluations from clips on which every node was evaluated (see
// the package comment on sampling bias).
func (p *Planner) Observe(i int, rejected bool, cost time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := &p.nodes[i]
	n.evals++
	if rejected {
		n.rejects++
	}
	n.costSum += cost.Seconds()
}

// ObserveTiers folds one clip's cascade accounting for node i into the
// tier escalation estimators: units[t] units were scored at tier t, of
// which escalated[t] escalated past it (band escalations and failure
// fallthroughs alike — both cost the next tier an inference). Like
// Observe, callers must only report unbiased clips: short-circuit-filtered
// clips would bias the escalation rates of late predicates.
func (p *Planner) ObserveTiers(i int, units, escalated []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := &p.nodes[i]
	for t := range n.tiers {
		if t < len(units) {
			n.tiers[t].units += units[t]
		}
		if t < len(escalated) {
			n.tiers[t].escalated += escalated[t]
		}
	}
}

// Skip records that short-circuiting spared one evaluation of node i — the
// savings ledger behind the svqact_plan_shortcircuit_savings metric.
func (p *Planner) Skip(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := &p.nodes[i]
	n.skips++
	p.skipped++
	p.savedCost += n.cost()
}

// EndClip marks the end of one fully observed (unbiased) clip and re-plans
// when the cadence is due.
func (p *Planner) EndClip() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observedClips++
	p.clipsSinceReplan++
	if p.clipsSinceReplan < p.opts.ReplanEvery {
		return
	}
	p.clipsSinceReplan = 0
	prev := append([]int(nil), p.order...)
	p.reorder()
	for i := range prev {
		if prev[i] != p.order[i] {
			p.replans++
			break
		}
	}
}

// reorder recomputes the tier decisions and the order from the current
// estimates (callers hold the lock). Pinned planners keep the declared
// order but still decide tiers — tier choice changes cost, never results,
// so even the ablation modes benefit. Ties keep declared relative
// positions (sort.SliceStable over an identity-initialised order would not
// survive repeated reorders, so the slice is reset first).
func (p *Planner) reorder() {
	p.decideTiers()
	for i := range p.order {
		p.order[i] = i
	}
	if p.opts.Pinned {
		return
	}
	keys := make([]float64, len(p.nodes))
	for i := range p.nodes {
		keys[i] = p.nodes[i].costToReject()
	}
	sort.SliceStable(p.order, func(a, b int) bool { return keys[p.order[a]] < keys[p.order[b]] })
}

// decideTiers recomputes each tiered node's escalation policy: enter the
// cascade when its expected cost to decide a unit undercuts jumping
// straight to the accurate tier, under the live escalation estimates
// (callers hold the lock).
func (p *Planner) decideTiers() {
	for i := range p.nodes {
		n := &p.nodes[i]
		if !n.tiered() {
			n.mode = TierSingle
			continue
		}
		if n.expectedUnitCost(0) <= n.expectedUnitCost(len(n.tiers)-1) {
			n.mode = TierCascade
		} else {
			n.mode = TierAccurate
		}
	}
}

// AppendDecisions appends the current evaluation order to order and copies
// the current tier decisions into modes (indexed by declared node
// position), under one lock — the engine's per-clip consultation.
func (p *Planner) AppendDecisions(order []int, modes []TierMode) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.nodes {
		if i < len(modes) {
			modes[i] = p.nodes[i].mode
		}
	}
	return append(order, p.order...)
}

// StaticTierChoice is the one-shot tier decision for offline consumers
// (rank's static planner): decide from the priors alone, with no live
// estimates to refine them.
func StaticTierChoice(tiers []TierCost) TierMode {
	if len(tiers) < 2 {
		return TierSingle
	}
	p := 1.0
	cascade := 0.0
	for i, t := range tiers {
		cascade += p * t.UnitCost.Seconds()
		if i < len(tiers)-1 {
			p *= clampRate(t.PriorEscalate)
		}
	}
	if cascade <= tiers[len(tiers)-1].UnitCost.Seconds() {
		return TierCascade
	}
	return TierAccurate
}

// Replans returns how many re-planning rounds actually changed the order.
func (p *Planner) Replans() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replans
}

// Report is the EXPLAIN-able snapshot of a planner: the chosen order, the
// per-node cost model, and the savings ledger. It serialises directly into
// the /query JSON response.
type Report struct {
	// Adaptive is false when the order was pinned to the declared one.
	Adaptive bool `json:"adaptive"`
	// Order lists node names in evaluation order; Declared in declared
	// order.
	Order    []string `json:"order"`
	Declared []string `json:"declared"`
	// Replans counts re-planning rounds that changed the order.
	Replans int `json:"replans"`
	// ObservedClips counts the unbiased clips folded into the cost model.
	ObservedClips int64 `json:"observed_clips"`
	// SkippedEvaluations counts predicate evaluations avoided by
	// short-circuiting; SavedCostMS prices them with the current model.
	SkippedEvaluations int64   `json:"skipped_evaluations"`
	SavedCostMS        float64 `json:"saved_cost_ms"`
	// Tiered is true when any node carries a detector cascade; every
	// tier-level field below it is omitted otherwise, so single-tier plans
	// serialise exactly as they did before cascades existed.
	Tiered bool `json:"tiered,omitempty"`
	// Budget reports the per-query inference budget when one was set; the
	// engine fills it in at snapshot time.
	Budget *BudgetReport `json:"budget,omitempty"`
	// Nodes holds the per-node cost model in declared order.
	Nodes []NodeReport `json:"nodes"`
}

// BudgetReport is the inference-budget block of a tiered Report.
type BudgetReport struct {
	// LimitMS is the per-query inference budget; SpentMS what the run
	// actually consumed.
	LimitMS float64 `json:"limit_ms"`
	SpentMS float64 `json:"spent_ms"`
	// SkippedClips counts clips skipped-and-flagged after exhaustion.
	SkippedClips int64 `json:"skipped_clips"`
	// Exhausted is true when the budget ran out before the video did.
	Exhausted bool `json:"exhausted"`
}

// TierReport is one cascade tier's escalation model in a NodeReport.
type TierReport struct {
	Name       string  `json:"name"`
	UnitCostMS float64 `json:"unit_cost_ms"`
	// Units counts units observed scored at this tier; Escalated how many
	// of them escalated past it (including failure fallthroughs).
	Units     int64 `json:"units"`
	Escalated int64 `json:"escalated"`
	// EscalationRate is the smoothed escalation-rate estimate; SpentMS the
	// inference spend observed at this tier.
	EscalationRate float64 `json:"escalation_rate"`
	SpentMS        float64 `json:"spent_ms"`
}

// NodeReport is one node's cost model in a Report.
type NodeReport struct {
	Name string `json:"name"`
	// Position is the node's slot in the chosen evaluation order.
	Position int `json:"position"`
	// EstimatedCostMS is the prior per-evaluation cost; ObservedCostMS the
	// live estimate (equal to the prior until something was observed).
	EstimatedCostMS float64 `json:"estimated_cost_ms"`
	ObservedCostMS  float64 `json:"observed_cost_ms"`
	// RejectRate is the smoothed rejection-rate estimate and
	// CostToRejectMS the ordering key derived from it.
	RejectRate     float64 `json:"reject_rate"`
	CostToRejectMS float64 `json:"cost_to_reject_ms"`
	// ObservedEvaluations counts unbiased evaluations folded in;
	// SkippedEvaluations the evaluations short-circuiting spared this node.
	ObservedEvaluations int64 `json:"observed_evaluations"`
	SkippedEvaluations  int64 `json:"skipped_evaluations"`
	// Tier is the planner's tier decision ("cascade" or "accurate") for
	// cascaded predicates; empty — and omitted — for single-model ones,
	// along with every other tier field.
	Tier string `json:"tier,omitempty"`
	// EscalationRate is the cheap tier's smoothed escalation-rate estimate.
	EscalationRate float64 `json:"escalation_rate,omitempty"`
	// Tiers holds the per-tier escalation model, cheapest tier first.
	Tiers []TierReport `json:"tiers,omitempty"`
}

// Report snapshots the planner. A nil planner reports nil, so a caller
// holding no plan stays valid.
func (p *Planner) Report() *Report {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &Report{
		Adaptive:           !p.opts.Pinned,
		Replans:            p.replans,
		ObservedClips:      p.observedClips,
		SkippedEvaluations: p.skipped,
		SavedCostMS:        p.savedCost * 1e3,
	}
	pos := make([]int, len(p.nodes))
	for slot, i := range p.order {
		pos[i] = slot
		rep.Order = append(rep.Order, p.nodes[i].name)
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		rep.Declared = append(rep.Declared, n.name)
		nr := NodeReport{
			Name:                n.name,
			Position:            pos[i],
			EstimatedCostMS:     n.priorCost * 1e3,
			ObservedCostMS:      n.cost() * 1e3,
			RejectRate:          n.rejectRate(),
			CostToRejectMS:      n.costToReject() * 1e3,
			ObservedEvaluations: n.evals,
			SkippedEvaluations:  n.skips,
		}
		if n.tiered() {
			rep.Tiered = true
			nr.Tier = n.mode.String()
			nr.EscalationRate = n.tiers[0].escalateRate()
			nr.Tiers = make([]TierReport, len(n.tiers))
			for t := range n.tiers {
				ts := &n.tiers[t]
				nr.Tiers[t] = TierReport{
					Name:           ts.name,
					UnitCostMS:     ts.unitCost * 1e3,
					Units:          ts.units,
					Escalated:      ts.escalated,
					EscalationRate: ts.escalateRate(),
					SpentMS:        float64(ts.units) * ts.unitCost * 1e3,
				}
			}
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	return rep
}
