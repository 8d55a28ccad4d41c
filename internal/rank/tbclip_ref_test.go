package rank

import (
	"svqact/internal/store"
	"svqact/internal/video"
)

// refTBClip is the map-based TBClip iterator as it stood before heaps and
// dense per-clip state replaced it (names aside, verbatim): best and worst
// scan the whole candidates map every round. Too slow to serve, simple enough
// to trust — TestTBClipMatchesReference and FuzzTBClipMatchesReference hold
// the production iterator to its every yield.
//
// It is the paper's TBClip iterator (Algorithm 5): it incrementally
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
type refTBClip struct {
	tables []store.Table
	scorer tableScorer
	pq     video.IntervalSet

	// scoreAll mimics running without any skip set (the paper's RVAQ-noSkip
	// ablation): every clip seen during sorted access has its full score
	// computed by random accesses, even clips outside the candidate
	// sequences whose score is then discarded.
	scoreAll bool

	// candidates holds seen, fully scored, unprocessed, unskipped clips.
	candidates map[int]float64
	processed  map[int]bool
	skipped    video.IntervalSet
	seen       map[int]bool

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
	// access — one allocation per iterator, not one per completed clip.
	scoreCol []float64
}

func newRefTBClip(tables []store.Table, scorer tableScorer, pq video.IntervalSet, scoreAll bool) (*refTBClip, error) {
	n := len(tables)
	// Pre-size the bookkeeping maps for the candidate clips the traversal
	// will see, so steady-state admission does not grow buckets.
	hint := pq.TotalLen()
	t := &refTBClip{
		tables:      tables,
		scorer:      scorer,
		pq:          pq,
		scoreAll:    scoreAll,
		remaining:   hint,
		candidates:  make(map[int]float64, hint),
		processed:   make(map[int]bool, hint),
		seen:        make(map[int]bool, hint),
		topCur:      make([]int, n),
		btmCur:      make([]int, n),
		topFrontier: make([]float64, n),
		btmFrontier: make([]float64, n),
		scoreCol:    make([]float64, n),
	}
	for i, tbl := range tables {
		t.btmCur[i] = tbl.Len() - 1
		if tbl.Len() > 0 {
			// Until a row is read, the frontiers bound the table's score
			// range: the top row's score from above is unknown, so seed
			// with the extremes actually stored.
			e, err := tbl.SortedAt(0)
			if err != nil {
				return nil, err
			}
			t.topFrontier[i] = e.Score
			t.btmFrontier[i] = 0
		}
	}
	return t, nil
}

// Skip excludes a clip range from all further processing.
func (t *refTBClip) Skip(iv video.Interval) {
	t.skipped = t.skipped.Union(video.NewIntervalSet(iv))
	for c := iv.Start; c <= iv.End; c++ {
		delete(t.candidates, c)
		if t.pq.Contains(c) && !t.processed[c] {
			t.processed[c] = true // nothing further will touch it
			t.remaining--
		}
	}
}

// exhausted reports whether every table row has been seen.
func (t *refTBClip) exhausted() bool {
	for i, tbl := range t.tables {
		if t.topCur[i] <= t.btmCur[i] && tbl.Len() > 0 {
			return false
		}
	}
	return true
}

// mark records a candidate clip as processed.
func (t *refTBClip) mark(clip int) {
	if !t.processed[clip] {
		t.processed[clip] = true
		t.remaining--
	}
	delete(t.candidates, clip)
}

// admitRow ingests one sorted-access row: unseen candidate clips get their
// full score computed by random access.
func (t *refTBClip) admitRow(e store.Entry) error {
	if t.seen[e.Clip] {
		return nil
	}
	t.seen[e.Clip] = true
	if t.processed[e.Clip] || t.skipped.Contains(e.Clip) {
		return nil
	}
	if !t.pq.Contains(e.Clip) {
		if t.scoreAll {
			// Without a skip set the iterator cannot tell candidate clips
			// apart before scoring them; the accesses are paid and the
			// result thrown away.
			if _, err := scoreClip(t.tables, t.scorer, e.Clip, t.scoreCol); err != nil {
				return err
			}
		}
		return nil
	}
	s, err := scoreClip(t.tables, t.scorer, e.Clip, t.scoreCol)
	if err != nil {
		return err
	}
	t.candidates[e.Clip] = s
	return nil
}

// advance performs one parallel sorted-access round from both ends.
func (t *refTBClip) advance() error {
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

// thresholds returns the TA bounds for clips not yet seen: any unseen clip
// scores at most the scorer applied to the top frontiers and at least the
// scorer applied to the bottom frontiers (the scorer is monotone in every
// component).
func (t *refTBClip) thresholds() (hi, lo float64) {
	return t.scorer.scoreTables(t.topFrontier), t.scorer.scoreTables(t.btmFrontier)
}

func (t *refTBClip) best() (int, float64, bool) {
	found := false
	var c int
	var s float64
	for clip, sc := range t.candidates {
		if !found || sc > s || (sc == s && clip < c) {
			found, c, s = true, clip, sc
		}
	}
	return c, s, found
}

func (t *refTBClip) worst() (int, float64, bool) {
	found := false
	var c int
	var s float64
	for clip, sc := range t.candidates {
		if !found || sc < s || (sc == s && clip < c) {
			found, c, s = true, clip, sc
		}
	}
	return c, s, found
}

// Next returns the next top clip and bottom clip with their scores. When a
// single candidate remains it is returned as the top clip only. ok is false
// when every candidate clip has been processed or skipped. A table read
// failure surfaces as err.
func (t *refTBClip) Next() (top, btm store.Entry, hasTop, hasBtm, ok bool, err error) {
	// Grow the seen set until the best (and worst) candidates provably
	// dominate everything unseen.
	for {
		if t.remaining <= 0 {
			return top, btm, false, false, false, nil
		}
		done := t.exhausted()
		hi, lo := t.thresholds()
		c, s, found := t.best()
		if found && (done || s >= hi) {
			wc, ws, wfound := t.worst()
			top = store.Entry{Clip: c, Score: s}
			t.mark(c)
			if wfound && wc != c && (done || ws <= lo) {
				btm = store.Entry{Clip: wc, Score: ws}
				t.mark(wc)
				return top, btm, true, true, true, nil
			}
			if wfound && wc != c {
				// The bottom is not yet certain; keep it for later rather
				// than over-scanning — the caller treats the missing bottom
				// conservatively.
				return top, btm, true, false, true, nil
			}
			return top, btm, true, false, true, nil
		}
		if done {
			return top, btm, false, false, false, nil
		}
		if err := t.advance(); err != nil {
			return top, btm, false, false, false, err
		}
	}
}
