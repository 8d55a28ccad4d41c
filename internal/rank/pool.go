package rank

import "sync"

// Per-query round-state pooling. A top-k traversal needs the same scratch
// for every query and re-derives part of it after every returned clip — the
// TBClip iterator's per-clip state and heaps, the candidate sequences'
// bound bookkeeping, the live set, the bound columns over it, the
// lower-bound selection column, the winner-order permutation. topkScratch
// owns all of it; a traversal acquires one scratch up front and returns it
// when the query finishes, so a warm query allocates none of it.
//
// The scratch holds no pointers into query results: winners are copied into
// fresh values before the traversal returns, and the columns are plain
// values recomputed every round.
type topkScratch struct {
	iter tbClip
	// seqs is the bound bookkeeping of every candidate sequence.
	seqs []seqState
	// live holds, in ascending order, the indexes into seqs of the
	// sequences not yet excluded: what a round's bookkeeping visits.
	live []int
	// lo and up are a round's bound columns: lo[j] and up[j] bracket
	// sequence live[j].
	lo, up []float64
	// sel is the copy of lo that kthLargest reorders to select Blo_K.
	sel []float64
	// bounds is the Bounds vector separatedInto reads, built from the
	// columns only in a round that may separate.
	bounds []Bounds
	// order is the index permutation separatedInto sorts.
	order []int
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

func acquireTopk() *topkScratch { return topkPool.Get().(*topkScratch) }

// release returns the scratch to the pool, keeping grown capacities but not
// the query's tables.
func (s *topkScratch) release() {
	s.iter.tables, s.iter.scorer = nil, nil
	topkPool.Put(s)
}

// resized returns s with length n and every element zero, reusing its
// capacity when that suffices.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
