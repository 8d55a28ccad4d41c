// Package store provides the storage layer of the offline engine: per-type
// clip score tables materialised during ingestion and consulted by the top-k
// query phase.
//
// A clip score table holds (clip, score) rows for one object or action type,
// ordered by score. The top-k algorithms consume tables through exactly the
// access patterns of the threshold-algorithm family: sorted access from the
// top, sorted access from the bottom, and random access by clip id — so the
// Table interface exposes precisely those, and the Stats wrapper counts them
// (the unit the paper's Tables 6 and 7 report).
//
// One implementation is provided, DiskTable: a table served from its encoded
// image, a fixed-record binary layout (one region ordered by score for sorted
// scans, one ordered by clip id for random lookups by binary search). The
// image lives in a mapped file or pack, or on the heap for a table built in
// memory (NewMemTable); the reader is the same.
package store

// Entry is one row of a clip score table.
type Entry struct {
	Clip  int
	Score float64
}

// Table is the read interface of a clip score table. Rows are unique per
// clip. Implementations must be safe for concurrent readers.
//
// Accessors return errors instead of panicking: a file-backed table can hit
// I/O failures (truncated file, yanked disk) on any read, and a query must
// degrade into a structured error rather than take the process down.
type Table interface {
	// Name identifies the table (typically the object or action type).
	Name() string
	// Len returns the number of rows.
	Len() int
	// SortedAt returns the i-th row in non-increasing score order; i counts
	// from the top (0 is the highest score). This serves both forward
	// sorted access (i ascending) and reverse sorted access from the bottom
	// (i descending from Len()-1). Out-of-range indexes and read failures
	// return an error.
	SortedAt(i int) (Entry, error)
	// ScoreOf returns the score stored for the clip, or false if the table
	// has no row for it. Read failures return an error.
	ScoreOf(clip int) (float64, bool, error)
}

// Stats counts table accesses during a query. The paper's offline evaluation
// compares algorithms by the number of random accesses; sorted accesses are
// counted as well for completeness.
type Stats struct {
	Sorted int64
	Random int64
}

// Add accumulates another stats value.
func (s *Stats) Add(o Stats) {
	s.Sorted += o.Sorted
	s.Random += o.Random
}

// counted decorates a Table with access counting.
type counted struct {
	t  Table
	st *Stats
}

// WithStats returns a view of t that increments st on every access.
func WithStats(t Table, st *Stats) Table { return &counted{t: t, st: st} }

func (c *counted) Name() string { return c.t.Name() }
func (c *counted) Len() int     { return c.t.Len() }
func (c *counted) SortedAt(i int) (Entry, error) {
	c.st.Sorted++
	return c.t.SortedAt(i)
}
func (c *counted) ScoreOf(clip int) (float64, bool, error) {
	c.st.Random++
	return c.t.ScoreOf(clip)
}
