package core

import (
	"sync"

	"svqact/internal/detect"
	"svqact/internal/plan"
)

// Per-run scratch pooling. A fleet run allocates the same per-video state —
// the Run itself, one predState per predicate, the clip/flag indicator
// slices, raw-clip indicators, the quantile gate's ring and histogram, the
// batch score column — once per video, thousands of times per sweep.
// runScratch owns all of it; runs acquire a scratch from the pool, point
// their slices into it, and return it after Result() has materialised
// everything the caller sees (Result is alias-free by construction:
// interval sets are built fresh by video.FromIndicator, plan reports by the
// planner).
//
// Lifecycle: newRun acquires; Run.release returns the scratch, reclaiming
// any capacity the run's appends grew. Only the batch entry points
// (Run.finish, EvaluateTypes) release — a Run handed out by the public
// NewRun streaming API is owned by the caller and is simply garbage
// collected, scratch and all, which is safe because the pool holds no
// reference until Put.
type runScratch struct {
	// run is the Run storage itself, so the batch path allocates nothing
	// per video once the pool is warm.
	run Run

	// preds is the predState backing array; Run.preds holds pointers into
	// it, so it is sized up front and never grown mid-run. Each slot keeps
	// its slice capacities (clipInd, rawClip, recent) and its kernel
	// estimator across reuse.
	preds    []predState
	predPtrs []*predState

	// The run's clause table and per-clip clause state (see Run).
	clauseEnd, clauseAtoms []int
	clauseSat              []bool
	clauseLeft             []int

	clipInd []bool
	flagged []bool

	// scores is the batch score column evaluate fills per clip.
	scores []float64

	// relEvents are the two operand types' detection batches of a relation
	// predicate's clip.
	relEvents [2]detect.Events

	// planOrder receives the planner's per-clip evaluation order (a copy —
	// the planner itself may be shared fleet-wide and reorder concurrently);
	// tierModes receives the matching per-predicate tier decisions, indexed
	// by declared position.
	planOrder []int
	tierModes []plan.TierMode

	// acc is the account evaluate resets and fills per evaluation — its
	// per-tier slices are retained across runs.
	acc detect.Account

	// The run's ledger, which Run.flush hands to the meter: the object
	// frames and action shots charged, and the summed accounts of the object
	// chain's, the action chain's and the relations' evaluations, indexed by
	// PredicateKind.
	frames, shots int
	ledger        [3]detect.Account
}

var runPool = sync.Pool{New: func() any { return new(runScratch) }}

// acquireRun returns a pooled Run with its scratch attached and all
// per-run state zeroed; predState slots and slice capacities are retained.
func acquireRun() *Run {
	s := runPool.Get().(*runScratch)
	r := &s.run
	*r = Run{scratch: s}
	r.preds = s.predPtrs[:0]
	r.clauseEnd, r.clauseAtoms = append(s.clauseEnd[:0], 0), s.clauseAtoms[:0]
	r.clauseSat, r.clauseLeft = s.clauseSat, s.clauseLeft
	r.clipInd = s.clipInd[:0]
	r.flagged = s.flagged[:0]
	return r
}

// ensurePreds makes room for n predState slots. The backing array is sized
// before any pointer into it is taken.
func (s *runScratch) ensurePreds(n int) {
	if cap(s.preds) < n {
		s.preds = make([]predState, n)
	}
	s.preds = s.preds[:n]
}

// release returns the run's scratch to the pool, reclaiming grown slice
// capacity and dropping every caller-owned reference (context, video,
// planner, query) so the pool pins nothing between runs. It flushes what
// the run charged since its last Result first. The Run must not be used
// afterwards.
func (r *Run) release() {
	s := r.scratch
	if s == nil {
		return
	}
	r.flush()
	s.clipInd = r.clipInd[:0]
	s.flagged = r.flagged[:0]
	s.predPtrs = r.preds[:0]
	s.clauseEnd, s.clauseAtoms = r.clauseEnd[:0], r.clauseAtoms[:0]
	s.clauseSat, s.clauseLeft = r.clauseSat, r.clauseLeft
	s.run = Run{}
	runPool.Put(s)
}

// scoreBuf returns the scratch score column resized to n.
func (r *Run) scoreBuf(n int) []float64 {
	r.scratch.scores = grow(r.scratch.scores, n)
	return r.scratch.scores
}

// orderBuf returns the empty scratch buffer the planner's per-clip order is
// appended into.
func (r *Run) orderBuf() []int {
	r.scratch.planOrder = grow(r.scratch.planOrder, len(r.preds))
	return r.scratch.planOrder[:0]
}

// modesBuf returns the scratch tier-decision column sized to the predicate
// count; the planner fills it by declared index.
func (r *Run) modesBuf() []plan.TierMode {
	r.scratch.tierModes = grow(r.scratch.tierModes, len(r.preds))
	return r.scratch.tierModes
}

// grow returns s with length n (contents unspecified), reusing the backing
// array when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}
