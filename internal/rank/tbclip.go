package rank

import (
	"context"
	"slices"

	"svqact/internal/store"
	"svqact/internal/video"
)

// tbClip is the paper's TBClip iterator (Algorithm 5): it incrementally
// yields the highest-scoring and the lowest-scoring clip among the
// not-yet-processed clips of the candidate sequences, by running sorted
// access in parallel over every query table from both ends, with random
// accesses to complete the scores of newly seen clips.
//
// The implementation grounds Algorithm 5's bound semantics in the threshold
// algorithm: a seen candidate is returned as the top (resp. bottom) clip
// only once its full score reaches the threshold g(top frontiers) (resp.
// falls to g(bottom frontiers)), which makes the returned scores true
// upper/lower bounds for every clip still unprocessed. Clips in the skip set
// are observed during sorted access but never random-accessed or returned.
//
// A sorted-access round costs O(tables · log candidates): what the iterator
// knows about a clip is one flag byte addressed by clip id, and the scored,
// unprocessed candidates wait in two binary heaps. A tbClip is reusable —
// reset keeps every slice's capacity — and lives in the pooled topkScratch.
type tbClip struct {
	tables []store.Table
	scorer tableScorer

	// scoreAll mimics running without any skip set (the paper's RVAQ-noSkip
	// ablation): every clip seen during sorted access has its full score
	// computed by random accesses, even clips outside the candidate
	// sequences whose score is then discarded.
	scoreAll bool

	// state holds the clip* flags of every index clip up to the last
	// candidate clip (further in scoreAll mode, which must remember
	// non-candidate clips too: see grow). score[c] is clip c's full score,
	// meaningful only while state[c] has clipCand.
	state []uint8
	score []float64

	// best and worst hold the clips with clipCand, ordered (score desc,
	// clip asc) and (score asc, clip asc): the tie-break the returned
	// sequence depends on. mark and Skip only clear the flag; an entry whose
	// clip lost it is dropped when it surfaces (a clip is pushed at most
	// once, so a stale entry never turns valid again).
	best, worst clipHeap

	// remaining counts candidate-sequence clips not yet processed or
	// skipped; the iterator is exhausted when it hits zero, even if table
	// rows remain unscanned.
	remaining int

	// rounds counts the parallel sorted-access rounds performed — the
	// traversal depth reported in Result.Rounds and the rank.topk span.
	rounds int

	topCur []int // next rank-region row from the top, per table
	btmCur []int // next rank-region row from the bottom, per table

	topFrontier []float64
	btmFrontier []float64

	// scoreCol is the per-table score column scoreClip fills on each random
	// access.
	scoreCol []float64
}

// Per-clip flags of tbClip.state.
const (
	clipSeen uint8 = 1 << iota // met in some table's sorted access
	clipInPq                   // belongs to a candidate sequence
	clipDone                   // processed or skipped: nothing further will touch it
	clipCand                   // fully scored and waiting in the heaps
)

// ctxCheckRounds is how many sorted-access rounds one NextContext call may
// run between two looks at its context.
const ctxCheckRounds = 64

func newTBClip(tables []store.Table, scorer tableScorer, pq video.IntervalSet, scoreAll bool) (*tbClip, error) {
	t := new(tbClip)
	if err := t.reset(tables, scorer, pq, scoreAll); err != nil {
		return nil, err
	}
	return t, nil
}

// reset points the iterator at a new query, reusing the capacity of every
// slice it owns.
func (t *tbClip) reset(tables []store.Table, scorer tableScorer, pq video.IntervalSet, scoreAll bool) error {
	t.tables, t.scorer, t.scoreAll = tables, scorer, scoreAll
	t.remaining, t.rounds = pq.TotalLen(), 0
	t.best = clipHeap{clips: t.best.clips[:0], desc: true}
	t.worst = clipHeap{clips: t.worst.clips[:0]}
	t.state, t.score = t.state[:0], t.score[:0]
	if span, ok := pq.Span(); ok {
		t.grow(span.End + 1)
	}
	for _, iv := range pq.Intervals() {
		for c := iv.Start; c <= iv.End; c++ {
			t.state[c] = clipInPq
		}
	}
	n := len(tables)
	t.topCur = resized(t.topCur, n)
	t.btmCur = resized(t.btmCur, n)
	t.topFrontier = resized(t.topFrontier, n)
	t.btmFrontier = resized(t.btmFrontier, n)
	t.scoreCol = resized(t.scoreCol, n)
	for i, tbl := range tables {
		t.btmCur[i] = tbl.Len() - 1
		if tbl.Len() > 0 {
			// Until a row is read, the frontiers bound the table's score
			// range: the top row's score from above is unknown, so seed
			// with the extremes actually stored.
			e, err := tbl.SortedAt(0)
			if err != nil {
				return err
			}
			t.topFrontier[i] = e.Score
		}
	}
	return nil
}

// grow extends the per-clip state to cover clip ids below n, new clips
// starting with no flag. The state spans the candidate sequences from the
// start; it grows only for a skipped range or, in scoreAll mode, a scored
// row beyond them.
func (t *tbClip) grow(n int) {
	old := len(t.state)
	if n <= old {
		return
	}
	t.state = slices.Grow(t.state, n-old)[:n]
	clear(t.state[old:])
	t.score = slices.Grow(t.score, n-old)[:n]
}

// Skip excludes a clip range from all further processing.
func (t *tbClip) Skip(iv video.Interval) {
	t.grow(iv.End + 1)
	for c := iv.Start; c <= iv.End; c++ {
		st := t.state[c]
		if st&(clipInPq|clipDone) == clipInPq {
			t.remaining-- // nothing further will touch it
		}
		t.state[c] = (st | clipDone) &^ clipCand
	}
}

// exhausted reports whether every table row has been seen.
func (t *tbClip) exhausted() bool {
	for i, tbl := range t.tables {
		if t.topCur[i] <= t.btmCur[i] && tbl.Len() > 0 {
			return false
		}
	}
	return true
}

// done reports whether a candidate-sequence clip was processed or skipped.
func (t *tbClip) done(clip int) bool { return t.state[clip]&clipDone != 0 }

// candidate returns the full score of a clip the traversal has scored but
// not yet returned.
func (t *tbClip) candidate(clip int) (float64, bool) {
	return t.score[clip], t.state[clip]&clipCand != 0
}

// mark records a candidate-sequence clip as processed.
func (t *tbClip) mark(clip int) {
	st := t.state[clip]
	if st&clipDone == 0 {
		t.remaining--
	}
	t.state[clip] = (st | clipDone) &^ clipCand
}

// admitRow ingests one sorted-access row: unseen candidate clips get their
// full score computed by random access.
func (t *tbClip) admitRow(e store.Entry) error {
	c := e.Clip
	if c >= len(t.state) {
		if !t.scoreAll {
			return nil // past the last candidate sequence: nothing to remember
		}
		t.grow(c + 1)
	}
	st := t.state[c]
	if st&clipSeen != 0 {
		return nil
	}
	t.state[c] = st | clipSeen
	if st&clipDone != 0 {
		return nil
	}
	if st&clipInPq == 0 && !t.scoreAll {
		return nil
	}
	// Without a skip set the iterator cannot tell candidate clips apart
	// before scoring them; for the others the accesses are paid and the
	// result thrown away.
	s, err := scoreClip(t.tables, t.scorer, c, t.scoreCol)
	if err != nil || st&clipInPq == 0 {
		return err
	}
	t.score[c] = s
	t.state[c] |= clipCand
	t.best.push(t.score, c)
	t.worst.push(t.score, c)
	return nil
}

// advance performs one parallel sorted-access round from both ends.
func (t *tbClip) advance() error {
	t.rounds++
	for i, tbl := range t.tables {
		if t.topCur[i] <= t.btmCur[i] {
			e, err := tbl.SortedAt(t.topCur[i])
			if err != nil {
				return err
			}
			t.topCur[i]++
			t.topFrontier[i] = e.Score
			if err := t.admitRow(e); err != nil {
				return err
			}
		}
		if t.btmCur[i] >= t.topCur[i] {
			e, err := tbl.SortedAt(t.btmCur[i])
			if err != nil {
				return err
			}
			t.btmCur[i]--
			t.btmFrontier[i] = e.Score
			if err := t.admitRow(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// extreme returns the heap's first clip that is still a candidate, dropping
// the entries mark and Skip invalidated on the way.
func (t *tbClip) extreme(h *clipHeap) (clip int, found bool) {
	for len(h.clips) > 0 {
		if c := h.clips[0]; t.state[c]&clipCand != 0 {
			return c, true
		}
		h.pop(t.score)
	}
	return 0, false
}

// NextContext returns the next top clip and bottom clip with their scores.
// When a single candidate remains it is returned as the top clip only. ok is
// false when every candidate clip has been processed or skipped. A table
// read failure surfaces as err, and so does ctx.Err(), consulted on entry
// and then every ctxCheckRounds sorted-access rounds.
//
// The thresholds are the TA bounds for clips not yet seen: any unseen clip
// scores at most the scorer applied to the top frontiers and at least the
// scorer applied to the bottom frontiers (the scorer is monotone in every
// component).
func (t *tbClip) NextContext(ctx context.Context) (top, btm store.Entry, hasTop, hasBtm, ok bool, err error) {
	// Grow the seen set until the best (and worst) candidates provably
	// dominate everything unseen.
	for n := 0; t.remaining > 0; n++ {
		if n%ctxCheckRounds == 0 {
			if err := ctx.Err(); err != nil {
				return top, btm, false, false, false, err
			}
		}
		drained := t.exhausted()
		if c, found := t.extreme(&t.best); found && (drained || t.score[c] >= t.scorer.scoreTables(t.topFrontier)) {
			top = store.Entry{Clip: c, Score: t.score[c]}
			// The worst is looked up before the top leaves the candidates:
			// the last candidate (or the lowest clip of an all-equal set) is
			// both, and goes out as the top only.
			wc, _ := t.extreme(&t.worst)
			t.mark(c)
			if wc != c && (drained || t.score[wc] <= t.scorer.scoreTables(t.btmFrontier)) {
				btm = store.Entry{Clip: wc, Score: t.score[wc]}
				t.mark(wc)
				return top, btm, true, true, true, nil
			}
			// The bottom is not yet certain; keep it for later rather than
			// over-scanning — the caller treats the missing bottom
			// conservatively.
			return top, btm, true, false, true, nil
		}
		if drained {
			break
		}
		if err := t.advance(); err != nil {
			return top, btm, false, false, false, err
		}
	}
	return top, btm, false, false, false, nil
}

// clipHeap is a binary heap of clip ids ordered by their score — descending
// when desc — and, among equal scores, by ascending clip id. The scores stay
// in the iterator's per-clip column and are passed to every operation.
type clipHeap struct {
	clips []int
	desc  bool
}

func (h *clipHeap) before(score []float64, a, b int) bool {
	if sa, sb := score[a], score[b]; sa != sb {
		return (sa > sb) == h.desc
	}
	return a < b
}

func (h *clipHeap) push(score []float64, clip int) {
	h.clips = append(h.clips, clip)
	cs := h.clips
	for i := len(cs) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.before(score, cs[i], cs[parent]) {
			break
		}
		cs[i], cs[parent] = cs[parent], cs[i]
		i = parent
	}
}

// pop removes the first clip.
func (h *clipHeap) pop(score []float64) {
	last := len(h.clips) - 1
	h.clips[0] = h.clips[last]
	h.clips = h.clips[:last]
	cs := h.clips
	for i := 0; ; {
		first := i
		if l := 2*i + 1; l < last && h.before(score, cs[l], cs[first]) {
			first = l
		}
		if r := 2*i + 2; r < last && h.before(score, cs[r], cs[first]) {
			first = r
		}
		if first == i {
			return
		}
		cs[i], cs[first] = cs[first], cs[i]
		i = first
	}
}
