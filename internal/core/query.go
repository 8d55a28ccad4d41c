// Package core implements the paper's online query engine: the query model,
// the per-clip indicator evaluation (Algorithm 2), the static-background
// streaming algorithm SVAQ (Algorithm 1) and its adaptive variant SVAQD
// (Algorithm 3).
//
// A query conjoins one action predicate with any number of object
// predicates. Per clip, each object predicate holds when the number of
// positively detected frames reaches a scan-statistics critical value, and
// the action predicate holds when the number of positively classified shots
// reaches its own critical value; the clip satisfies the query when all
// predicates hold, and maximal runs of satisfying clips are merged into
// result sequences.
//
// Predicate statistics — the SVAQD background estimates and the planner's
// cost model — learn only from sampled clips, on which every atom is
// evaluated whatever the others answered. Which clips are sampled is fixed
// when a run is bound, from its mode and length alone (every
// estimatorSampleEvery-th clip, plus a bootstrap prefix where an estimator
// can read it), so the sample never depends on what the clips hold: it is
// unbiased however the atoms correlate. A sampled clip's count is read in
// full only where an estimator reads it (and under NoShortCircuit); every
// other evaluation stops once its indicator is decided.
package core

import (
	"fmt"
	"sort"
	"time"

	"svqact/internal/detect"
)

// Query is the paper's q: {o_1, ..., o_I; a} — a conjunction of object
// presence predicates and exactly one action predicate.
type Query struct {
	// Objects are the queried object types, evaluated in order (the paper
	// evaluates predicates sequentially and short-circuits on the first
	// negative one).
	Objects []string
	// Action is the queried action type.
	Action string
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if q.Action == "" {
		return fmt.Errorf("core: query needs an action predicate")
	}
	seen := make(map[string]bool, len(q.Objects))
	for _, o := range q.Objects {
		if o == "" {
			return fmt.Errorf("core: empty object predicate")
		}
		if seen[o] {
			return fmt.Errorf("core: duplicate object predicate %q", o)
		}
		seen[o] = true
	}
	return nil
}

// String renders the query in the paper's set notation.
func (q Query) String() string {
	s := "{"
	for i, o := range q.Objects {
		if i > 0 {
			s += "; "
		}
		s += "o" + fmt.Sprint(i+1) + "=" + o
	}
	if len(q.Objects) > 0 {
		s += "; "
	}
	return s + "a=" + q.Action + "}"
}

// Canonical returns a copy with sorted object predicates; two queries with
// the same canonical form are semantically identical.
func (q Query) Canonical() Query {
	objs := append([]string(nil), q.Objects...)
	sort.Strings(objs)
	return Query{Objects: objs, Action: q.Action}
}

// Config tunes the engine. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Alpha is the significance level of the scan-statistics test (paper
	// Equation 5).
	Alpha float64
	// HorizonClips is L = N/w, the number of scanning windows over which
	// significance is controlled. The paper leaves the horizon implicit; we
	// fix it as a config knob.
	HorizonClips float64

	// P0Object and P0Action seed the background probabilities: SVAQ uses
	// them as the fixed p0 for its critical values; SVAQD uses them only as
	// the (quickly forgotten) estimator priors.
	P0Object float64
	P0Action float64

	// BandwidthFrames and BandwidthShots are the SVAQD kernel bandwidths u
	// for object estimators (occurrence unit: frame) and the action
	// estimator (occurrence unit: shot).
	BandwidthFrames float64
	BandwidthShots  float64

	// CritGrid is the log10 quantisation step of the dynamic critical
	// values: background estimates within the same bucket share k_crit.
	CritGrid float64

	// NoShortCircuit disables Algorithm 2's early exit, forcing every
	// predicate to be evaluated on every clip (needed when per-predicate
	// diagnostics must be complete, e.g. the false-positive-rate study).
	NoShortCircuit bool

	// ActionFirst evaluates the action predicate before the object
	// predicates — the predicate-order ablation. It pins the evaluation
	// order, disabling the adaptive planner.
	ActionFirst bool

	// DeclaredOrder pins predicate evaluation to the declared order
	// (objects in query order, then the action), disabling the cost-based
	// adaptive planner — the compatibility/ablation opt-out. Ordering
	// never changes results (clip truth is conjunctive), only cost.
	DeclaredOrder bool

	// Retry tunes retrying of failed detector invocations (fallible models
	// only; the simulated models never fail unless fault-injected). The zero
	// value means detect.DefaultRetryConfig.
	Retry detect.RetryConfig

	// FailureBudget is the fraction of a video's clips that may be flagged
	// (skipped after retry exhaustion) before the run aborts with a
	// DegradedError instead of silently returning a result that is mostly
	// holes. Zero means the default of 0.25.
	FailureBudget float64

	// InferenceBudget caps the simulated inference cost one run may spend;
	// zero means unlimited. Enforced at clip granularity: once the spend
	// reaches the budget, every remaining clip is skipped-and-flagged (its
	// indicator conservatively negative, the clip surfaced in
	// Result.Flagged and the plan report's budget block) and the run
	// completes normally — planned degradation, not a failure, so budget
	// skips do not count against FailureBudget and never raise a
	// DegradedError.
	InferenceBudget time.Duration

	// Meter, when set, receives every engine's inference, retry, fault and
	// flagged-clip accounting, once per run: from Result, and from the batch
	// entry points' release of a run, whatever its outcome. The serving path
	// uses a process-lifetime meter here so ingestion engines created deep
	// inside rank charge the same scraped counters.
	Meter *detect.Meter
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Alpha:           0.05,
		HorizonClips:    20,
		P0Object:        1e-4,
		P0Action:        1e-4,
		BandwidthFrames: 1500,
		BandwidthShots:  250,
		CritGrid:        0.02,
		Retry:           detect.DefaultRetryConfig(),
		FailureBudget:   0.25,
	}
}

// The SVAQD background estimation's fixed schedule, which no caller varies.
const (
	// estimatorSampleEvery is the unbiased sampling period: every n-th clip,
	// all predicates are evaluated even if an earlier one already failed,
	// and only these unconditional evaluations feed the background
	// estimators (SVAQD) and the planner's cost model. Otherwise
	// short-circuiting would feed the later predicates' statistics only
	// clips pre-selected by the earlier ones — a sample heavily enriched for
	// the (correlated) events whose rates are being estimated.
	estimatorSampleEvery = 4
	// bootstrapClips is the initial prefix in which every clip is sampled,
	// so the estimators converge within a fixed prefix of the stream instead
	// of a multiple of the sampling period. Only a run an estimator can read
	// it in samples it (SVAQD over more than robustWindowClips clips, decided
	// in bind); every other run samples every
	// estimatorSampleEvery-th clip from the first, which still feeds the
	// planner.
	bootstrapClips = 48
	// nullQuantile keeps the background estimate robust to the events
	// themselves: a clip's count feeds a predicate's estimator only when it
	// does not exceed this quantile of the recent counts, so the minority of
	// clips that contain the event cannot inflate the null rate. It needs
	// event occupancy below roughly this fraction of clips.
	nullQuantile = 0.6
	// robustWindowClips is how many recent unbiased clip counts the
	// quantile gate considers.
	robustWindowClips = 48
)

// DefaultFailureBudget is the flagged-clip tolerance used when
// Config.FailureBudget is zero.
const DefaultFailureBudget = 0.25

// withDefaults fills the failure-model knobs a zero-valued or pre-existing
// Config leaves unset, so older literals keep validating.
func (c Config) withDefaults() Config {
	if c.Retry.Attempts == 0 {
		c.Retry = detect.DefaultRetryConfig()
	}
	if c.FailureBudget == 0 {
		c.FailureBudget = DefaultFailureBudget
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	// Each bound is written !(inside) so that NaN, which compares false
	// with everything, is rejected too.
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return fmt.Errorf("core: Alpha = %v out of (0,1)", c.Alpha)
	}
	if !(c.HorizonClips >= 1) {
		return fmt.Errorf("core: HorizonClips = %v must be >= 1", c.HorizonClips)
	}
	if !(c.P0Object >= 0 && c.P0Object <= 1 && c.P0Action >= 0 && c.P0Action <= 1) {
		return fmt.Errorf("core: background probabilities out of [0,1]")
	}
	if !(c.BandwidthFrames > 0 && c.BandwidthShots > 0) {
		return fmt.Errorf("core: kernel bandwidths must be positive")
	}
	if !(c.CritGrid > 0) {
		return fmt.Errorf("core: CritGrid must be positive")
	}
	if !(c.FailureBudget >= 0 && c.FailureBudget <= 1) {
		return fmt.Errorf("core: FailureBudget = %v out of [0,1]", c.FailureBudget)
	}
	if c.Retry.Attempts < 0 {
		return fmt.Errorf("core: Retry.Attempts = %d must be >= 0", c.Retry.Attempts)
	}
	if c.InferenceBudget < 0 {
		return fmt.Errorf("core: InferenceBudget = %v must be >= 0", c.InferenceBudget)
	}
	return nil
}
