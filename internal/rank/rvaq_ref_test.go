package rank

import (
	"context"
	"math"
	"sort"

	"svqact/internal/core"
	"svqact/internal/store"
	"svqact/internal/video"
)

// refTopkRun is topkRun as it stood before the per-round bookkeeping moved
// to the live candidates only (names and buffers aside, verbatim): every
// returned clip rebuilds a Bounds vector over every candidate sequence,
// excluded ones included, selects Blo_K from all of their lower bounds and
// scans all of them twice more. Simple enough to trust —
// TestTopkMatchesReference and FuzzTopkMatchesReference hold the production
// traversal to its every Result field.
func refTopkRun(ctx context.Context, res *Result, tables []store.Table, scorer tableScorer, opts Options, pq video.IntervalSet, k int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	iter, err := newTBClip(tables, scorer, pq, opts.NoSkip)
	if err != nil {
		return err
	}
	defer func() { res.Rounds = iter.rounds }()

	n := pq.NumIntervals()
	seqs := make([]seqState, n)
	bs := make([]Bounds, n)
	for i, iv := range pq.Intervals() {
		seqs[i].iv = iv
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
	boundsOf := func(s *seqState) Bounds {
		rem := s.remaining()
		if rem == 0 {
			return Bounds{Seq: s.iv, Lo: s.sum, Up: s.sum, Exact: true}
		}
		return Bounds{Seq: s.iv, Lo: f.Combine(s.sum, f.Repeat(sBtm, rem)), Up: f.Combine(s.sum, f.Repeat(sTop, rem))}
	}
	refresh := func() {
		for i := range seqs {
			bs[i] = boundsOf(&seqs[i])
		}
	}
	separated := func() ([]*seqState, bool) {
		idx, sep := Separated(bs, k)
		if !sep {
			return nil, false
		}
		winners := make([]*seqState, len(idx))
		for i, j := range idx {
			winners[i] = &seqs[j]
			seqs[j].winner = true
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
			break
		}
		if hasTop {
			sTop = top.Score
			processClip(top)
		}
		if hasBtm {
			sBtm = btm.Score
			processClip(btm)
		}

		refresh()
		bloK := TopKLowerBound(bs, k)
		above := 0
		for i := range bs {
			if bs[i].Up > bloK {
				above++
			}
		}
		sep := false
		if above <= k {
			winners, sep = separated()
		}
		if !sep {
			if !opts.NoSkip {
				for i := range seqs {
					if s := &seqs[i]; !s.excluded && bs[i].Up < bloK {
						s.excluded = true
						iter.Skip(s.iv)
					}
				}
			}
			continue
		}
		if opts.ApproxScores {
			break
		}
		if !opts.NoSkip {
			for i := range seqs {
				if s := &seqs[i]; !s.winner && !s.excluded {
					s.excluded = true
					iter.Skip(s.iv)
				}
			}
		}
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
