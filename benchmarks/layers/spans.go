// Package layers measures the system's layers from outside: an in-memory
// span recorder around calls into each package's public functions, the layer
// budget derived from those spans, in-process replicas of what the server
// processes run, and microbenchmarks of the single layers. Nothing in the
// measured packages is modified; spans inside the program are a later
// change's business.
package layers

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"svqact/benchmarks/loadgen"
)

// Span is one timed call at a layer boundary. Spans of one request share
// its Request number; Parent is the span that caused this one (0 for the
// root). The nesting levels of a request are measured in separate passes —
// from outside, one cannot time sqlq.Parse inside a running handler — so a
// child's interval does not lie inside its parent's; what nests is the
// call structure.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewRecorder starts an empty recording; span times count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Add records a finished span and returns its id.
func (r *Recorder) Add(name string, parent, request int, start time.Time, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := start.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// Time runs f inside a span.
func (r *Recorder) Time(name string, parent, request int, f func()) (id int, d time.Duration) {
	start := time.Now()
	f()
	d = time.Since(start)
	return r.Add(name, parent, request, start, d), d
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus its children's
// durations. Because the levels are timed in separate calls, a child can
// come out longer than its parent and a single self time negative; over many
// requests those errors cancel, which flooring each one at zero would not.
func SelfTimes(spans []Span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Duration()
		if s.Parent != 0 {
			self[s.Parent] -= s.Duration()
		}
	}
	return self
}

// Row is one line of a layer budget.
type Row struct {
	Name string
	// MeanMS is the layer's self time per request, averaged over every
	// request (a request that never enters the layer counts as zero).
	// Means add up; medians of a mixed traffic do not.
	MeanMS float64
	// MedianMS is the median self time of the spans with this name, for
	// the reader; PerRequest how many such spans a request has on average.
	MedianMS   float64
	PerRequest float64
}

// Budget is where a request's time goes, layer by layer.
type Budget struct {
	// Root is the name of the root spans, TotalMS their mean duration —
	// the figure the rows add up to — and MedianMS their median.
	Root     string
	TotalMS  float64
	MedianMS float64
	Rows     []Row
}

// Sum adds the rows up.
func (b Budget) Sum() float64 {
	var sum float64
	for _, r := range b.Rows {
		sum += r.MeanMS
	}
	return sum
}

// ResidualRatio is the share of the total the rows leave unexplained. Rows
// are means of signed self times and so add up to the total exactly, unless
// a whole row came out negative — the calls below a layer measured longer,
// on average, than the layer itself — and was floored at zero; the excess
// then shows up here, negative, instead of hiding in a negative row.
func (b Budget) ResidualRatio() float64 {
	if b.TotalMS == 0 {
		return 0
	}
	return (b.TotalMS - b.Sum()) / b.TotalMS
}

// String renders the budget as a table.
func (b Budget) String() string {
	out := fmt.Sprintf("-- layer budget: mean self time per request (%s: mean %.3f ms, median %.3f ms) --\n", b.Root, b.TotalMS, b.MedianMS)
	for _, r := range b.Rows {
		out += fmt.Sprintf("%-22s %9.4f ms %5.1f%%   (median %.4f ms on %.2f of requests)\n", r.Name, r.MeanMS, 100*r.MeanMS/b.TotalMS, r.MedianMS, r.PerRequest)
	}
	out += fmt.Sprintf("%-22s %9.4f ms %5.1f%%\n", "sum of rows", b.Sum(), 100*b.Sum()/b.TotalMS)
	out += fmt.Sprintf("%-22s %9.4f\n", "budget_residual_ratio", b.ResidualRatio())
	return out
}

// NewBudget derives the layer budget from recorded spans. rowNames gives the
// budget row a span's self time is listed under where that differs from the
// span's name: the self time of an HTTP round trip is the hop, that of a
// handler the server's own share.
func NewBudget(spans []Span, rowNames map[string]string) Budget {
	self := SelfTimes(spans)
	byName := map[string][]float64{}
	var totals []float64
	root := ""
	for _, s := range spans {
		name := s.Name
		if row, ok := rowNames[name]; ok {
			name = row
		}
		if s.Parent == 0 {
			root = s.Name
			totals = append(totals, ms(s.Duration()))
		}
		byName[name] = append(byName[name], ms(self[s.ID]))
	}
	requests := float64(max(len(totals), 1))
	b := Budget{Root: root, TotalMS: sum(totals) / requests, MedianMS: loadgen.Median(totals)}
	for name, v := range byName {
		b.Rows = append(b.Rows, Row{Name: name, MeanMS: max(0, sum(v)/requests), MedianMS: loadgen.Median(v), PerRequest: float64(len(v)) / requests})
	}
	sort.Slice(b.Rows, func(i, j int) bool { return b.Rows[i].Name < b.Rows[j].Name })
	return b
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
