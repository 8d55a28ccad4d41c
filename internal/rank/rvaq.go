package rank

import (
	"context"
	"fmt"
	"math"
	"sort"

	"svqact/internal/core"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/store"
	"svqact/internal/video"
)

// SeqResult is one ranked result sequence.
type SeqResult struct {
	Seq video.Interval
	// Lower and Upper bound the sequence score; they coincide when Exact.
	Lower, Upper float64
	Exact        bool
}

// Score returns the exact score when known, otherwise the midpoint of the
// bounds.
func (s SeqResult) Score() float64 {
	if s.Exact {
		return s.Lower
	}
	return (s.Lower + s.Upper) / 2
}

// Result is the outcome of a top-k query.
type Result struct {
	Algorithm string
	Query     core.Query
	K         int
	// Sequences holds the top-k results in non-increasing score order.
	Sequences []SeqResult
	// Stats counts the table accesses the query performed.
	Stats store.Stats
	// ClipsScored is the number of distinct clips whose full score was
	// computed.
	ClipsScored int
	// Candidates is |P_q|, the number of candidate sequences.
	Candidates int
	// Rounds is the number of parallel sorted-access rounds the traversal
	// performed (TBClip iterator rounds for RVAQ, Fagin phase-1 rounds for
	// FA; zero for Pq-Traverse, which scans by random access only).
	Rounds int
	// Plan reports the table-ordering plan the query ran with — the
	// offline EXPLAIN surface. Ordering never changes ranked output.
	Plan *plan.Report
	// Truncated reports that candidate sequences beyond the returned
	// top-k exist; ResidualUpper is then an upper bound on every omitted
	// sequence's score. A scatter-gather coordinator uses the pair as the
	// distributed-threshold signal: once a shard's ResidualUpper falls
	// below the global k-th lower bound (Blo_K) the shard holds nothing
	// further worth pulling.
	Truncated     bool
	ResidualUpper float64
}

// Options tune the RVAQ query phase.
type Options struct {
	// Scoring defaults to PaperScoring.
	Scoring Scoring
	// NoSkip disables the dynamic skip mechanism (the paper's RVAQ-noSkip
	// ablation): conclusively excluded sequences keep being refined.
	NoSkip bool
	// ApproxScores stops as soon as the top-k set is determined, reporting
	// score bounds instead of exact scores for the winners. The default
	// (false) matches the paper's evaluation, which reports exact scores.
	ApproxScores bool
}

func (o Options) withDefaults() Options {
	if o.Scoring.Clip == nil && o.Scoring.Seq == nil {
		o.Scoring = PaperScoring()
	}
	return o
}

// seqState tracks the bound bookkeeping of one candidate sequence.
type seqState struct {
	iv        video.Interval
	sum       float64 // f over processed clips
	processed int
	excluded  bool // conclusively outside the top-k
	winner    bool // in the separated top-k set
}

func (s *seqState) remaining() int { return s.iv.Len() - s.processed }

// RVAQ answers a top-k action query over an ingested index using the
// paper's Algorithm 4: candidate sequences come from intersecting the
// per-predicate individual sequences; the TBClip iterator then delivers
// extreme-scoring clips, progressively tightening per-sequence score bounds
// until the top-k set separates; sequences proven irrelevant have their
// remaining clips added to the skip set.
//
// The context is checked before every returned clip and every
// ctxCheckRounds sorted-access rounds in between, so a deadlined or abandoned
// query stops touching the tables within that many rounds; table read
// failures surface as errors instead of panics.
func RVAQ(ctx context.Context, ix *Index, q core.Query, k int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Scoring.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("rank: k = %d must be positive", k)
	}
	pq, err := ix.Pq(q)
	if err != nil {
		return nil, err
	}
	name := "RVAQ"
	if opts.NoSkip {
		name = "RVAQ-noSkip"
	}
	res := &Result{Algorithm: name, Query: q, K: k, Candidates: pq.NumIntervals()}
	if pq.Empty() {
		return res, nil
	}
	tables, scorer, rep, err := ix.queryTables(q, &res.Stats, opts.Scoring.Clip)
	if err != nil {
		return nil, err
	}
	res.Plan = rep
	if err := topkRun(ctx, res, tables, scorer, opts, pq, k); err != nil {
		return nil, err
	}
	return res, nil
}

// topkRun is the shared engine of RVAQ and RVAQCNF (Algorithm 4): bound
// maintenance over the candidate sequences, the TBClip iterator, the skip
// set and the Equation 15 stopping condition. The result's Sequences and
// ClipsScored are filled in; access counts accumulate through the tables'
// stats wrappers.
func topkRun(ctx context.Context, res *Result, tables []store.Table, scorer tableScorer, opts Options, pq video.IntervalSet, k int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	scratch := acquireTopk()
	defer scratch.release()
	iter := &scratch.iter
	if err := iter.reset(tables, scorer, pq, opts.NoSkip); err != nil {
		return err
	}
	span := obs.StartSpan(ctx, "rank.topk")
	defer func() {
		res.Rounds = iter.rounds
		finishTopkSpan(span, res)
	}()

	n := pq.NumIntervals()
	scratch.seqs = resized(scratch.seqs, n)
	scratch.live = resized(scratch.live, n)
	scratch.bounds = resized(scratch.bounds, n)
	scratch.lo = resized(scratch.lo, n)
	scratch.up = resized(scratch.up, n)
	scratch.sel = resized(scratch.sel, n)
	scratch.order = resized(scratch.order, n)
	seqs, live := scratch.seqs, scratch.live
	for i, iv := range pq.Intervals() {
		seqs[i].iv = iv
		live[i] = i
	}
	locate := func(clip int) *seqState {
		i := sort.Search(len(seqs), func(i int) bool { return seqs[i].iv.End >= clip })
		if i < len(seqs) && seqs[i].iv.Contains(clip) {
			return &seqs[i]
		}
		return nil
	}

	f := opts.Scoring.Seq
	sTop, sBtm := math.Inf(1), 0.0
	// boundsOf brackets a sequence's score: the processed clips' sum, plus
	// every unprocessed clip at the last bottom score from below and at the
	// last top score from above.
	boundsOf := func(s *seqState) Bounds {
		rem := s.remaining()
		if rem == 0 {
			return Bounds{Seq: s.iv, Lo: s.sum, Up: s.sum, Exact: true}
		}
		return Bounds{Seq: s.iv, Lo: f.Combine(s.sum, f.Repeat(sBtm, rem)), Up: f.Combine(s.sum, f.Repeat(sTop, rem))}
	}
	// refresh writes the live sequences' bounds from the current extremes
	// into the lo and up columns (position j is sequence live[j]) and
	// returns Blo_K, the k-th largest of those lower bounds: once per
	// returned clip, read by the hopeless drop and the Equation 15 check.
	refresh := func() float64 {
		lo, up := scratch.lo[:len(live)], scratch.up[:len(live)]
		for j, i := range live {
			// boundsOf's bracket, written out: a call per sequence
			// here costs the selective deck 5-10 %.
			s := &seqs[i]
			if rem := s.remaining(); rem == 0 {
				lo[j], up[j] = s.sum, s.sum
			} else {
				lo[j], up[j] = f.Combine(s.sum, f.Repeat(sBtm, rem)), f.Combine(s.sum, f.Repeat(sTop, rem))
			}
		}
		if len(live) < k {
			return math.Inf(-1)
		}
		sel := scratch.sel[:len(live)]
		copy(sel, lo)
		return kthLargest(sel, k)
	}
	// reviveAll puts every candidate sequence back in the live set, excluded
	// ones included, for a round that must look at all of them.
	reviveAll := func() {
		live = scratch.live[:n]
		for i := range live {
			live[i] = i
		}
	}
	// exUp is the largest upper bound any excluded sequence had when it was
	// excluded. An excluded sequence processes no further clip, so its
	// upper bound only falls with sTop from there.
	exUp := math.Inf(-1)
	// separated reports whether the k-th best lower bound dominates every
	// other live sequence's upper bound (paper Equation 15), returning the
	// winner set when it does. It reads the columns refresh wrote; the
	// bound comparison itself lives in rank.Separated so the cluster
	// coordinator's merge applies the identical rule.
	separated := func() ([]*seqState, bool) {
		bs := scratch.bounds[:len(live)]
		for j := range bs {
			bs[j] = Bounds{Lo: scratch.lo[j], Up: scratch.up[j]}
		}
		idx, sep := separatedInto(bs, k, scratch.order[:0])
		if !sep {
			return nil, false
		}
		// idx aliases the scratch permutation; copy winners out.
		winners := make([]*seqState, len(idx))
		for i, j := range idx {
			s := &seqs[live[j]]
			winners[i] = s
			s.winner = true
		}
		return winners, true
	}

	processClip := func(e store.Entry) {
		if s := locate(e.Clip); s != nil {
			s.sum = f.Combine(s.sum, f.OfClip(e.Score))
			s.processed++
			res.ClipsScored++
		}
	}

	var winners []*seqState
	for {
		top, btm, hasTop, hasBtm, ok, err := iter.NextContext(ctx)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return &core.InterruptedError{Processed: res.ClipsScored, Total: pq.TotalLen(), Err: cerr}
			}
			return err
		}
		if !ok {
			break // every candidate clip processed: all bounds exact
		}
		if hasTop {
			sTop = top.Score
			processClip(top)
		}
		if hasBtm {
			sBtm = btm.Score
			processClip(btm)
		}

		bloK := refresh()
		if len(live) < n && !(sBtm <= sTop && exUp < bloK) {
			// An excluded sequence left with Up < Blo_K. Its Up only
			// falls from there, its Lo stays under its Up while
			// sBtm <= sTop, and Blo_K never falls in exact arithmetic
			// over complete tables: while exUp < Blo_K no excluded
			// sequence can count above Blo_K, win or move it, and the
			// live set decides the round exactly. A rounding dip in
			// Blo_K, or a bottom score that a clip missing from some
			// table undercuts, breaks that; then this round looks at
			// every sequence, excluded ones included, as Algorithm 4
			// does.
			reviveAll()
			bloK = refresh()
		}
		// Equation 15 needs every sequence outside the k best lower bounds
		// to have Up <= Blo_K, so more than k sequences above Blo_K rule it
		// out without ordering anything.
		up := scratch.up[:len(live)]
		above := 0
		for _, u := range up {
			if u > bloK {
				above++
			}
		}
		sep := false
		if above <= k {
			winners, sep = separated()
		}
		if !sep {
			// Even before separation, sequences whose upper bound falls
			// below the current k-th lower bound can never win: skip
			// their remaining clips (Algorithm 4 lines 13-14) and drop
			// them from the live set.
			if !opts.NoSkip {
				kept := live[:0]
				for j, i := range live {
					s := &seqs[i]
					if !s.excluded && up[j] < bloK {
						s.excluded = true
						exUp = max(exUp, up[j])
						iter.Skip(s.iv)
					}
					if !s.excluded {
						kept = append(kept, i)
					}
				}
				live = kept
			}
			continue
		}
		if opts.ApproxScores {
			break
		}
		if !opts.NoSkip {
			// The top-k set is fixed; everything else is irrelevant
			// (Algorithm 4 lines 19-20).
			for _, i := range live {
				if s := &seqs[i]; !s.winner && !s.excluded {
					s.excluded = true
					iter.Skip(s.iv)
				}
			}
		}
		// The winners' exact scores no longer need the iterator's
		// threshold machinery — fetch their remaining clips by direct
		// random access.
		for _, s := range winners {
			for c := s.iv.Start; c <= s.iv.End; c++ {
				if iter.done(c) {
					continue
				}
				score, ok := iter.candidate(c)
				if !ok {
					var err error
					score, err = scoreClip(tables, scorer, c, iter.scoreCol)
					if err != nil {
						return err
					}
				}
				iter.mark(c)
				processClip(store.Entry{Clip: c, Score: score})
			}
		}
		break
	}

	if winners == nil {
		// The iterator drained before separation: every live score is
		// exact, so rank directly — over every sequence, since an excluded
		// one keeps its unprocessed clips' bounds.
		reviveAll()
		refresh()
		ws, _ := separated()
		if ws == nil {
			sort.Slice(seqs, func(i, j int) bool { return seqs[i].sum > seqs[j].sum })
			for i := 0; i < len(seqs) && i < k; i++ {
				seqs[i].winner = true
				ws = append(ws, &seqs[i])
			}
		}
		winners = ws
	}

	for _, w := range winners {
		b := boundsOf(w)
		res.Sequences = append(res.Sequences, SeqResult{Seq: b.Seq, Lower: b.Lo, Upper: b.Up, Exact: b.Exact})
	}
	sort.Slice(res.Sequences, func(i, j int) bool { return res.Sequences[i].Score() > res.Sequences[j].Score() })
	// The residual upper bound covers every candidate the top-k omits —
	// what a coordinator needs to decide whether this shard could still
	// contribute to a global top-k.
	for i := range seqs {
		if s := &seqs[i]; !s.winner {
			res.Truncated = true
			if up := boundsOf(s).Up; up > res.ResidualUpper {
				res.ResidualUpper = up
			}
		}
	}
	return nil
}

// finishTopkSpan closes a rank.topk span with the query-phase attributes
// shared by every ranking algorithm.
func finishTopkSpan(span *obs.Span, res *Result) {
	if span == nil {
		return // untraced: boxing the counts would allocate for nothing
	}
	span.SetAttr("algorithm", res.Algorithm).
		SetAttr("k", res.K).
		SetAttr("candidates", res.Candidates).
		SetAttr("rounds", res.Rounds).
		SetAttr("clips_scored", res.ClipsScored).
		SetAttr("sorted_accesses", res.Stats.Sorted).
		SetAttr("random_accesses", res.Stats.Random)
	span.End()
}

// sortSeqResults orders exhaustively scored results by score then position.
func sortSeqResults(rs []SeqResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Lower != rs[j].Lower {
			return rs[i].Lower > rs[j].Lower
		}
		return rs[i].Seq.Start < rs[j].Seq.Start
	})
}
