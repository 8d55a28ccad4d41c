package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SpanNode is one span with its children resolved — the tree form of a
// TraceSnapshot's flat depth-first span list.
type SpanNode struct {
	SpanSnapshot
	Children []*SpanNode
}

// Tree resolves the snapshot's flat span list into a forest. The flat list
// is depth-first (parents precede children), so a single pass suffices;
// spans whose parent id is missing are treated as roots.
func (ts *TraceSnapshot) Tree() []*SpanNode {
	if ts == nil {
		return nil
	}
	byID := make(map[string]*SpanNode, len(ts.Spans))
	var roots []*SpanNode
	for _, ss := range ts.Spans {
		n := &SpanNode{SpanSnapshot: ss}
		if ss.ID != "" {
			byID[ss.ID] = n
		}
		if p, ok := byID[ss.Parent]; ok && ss.Parent != "" && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Find returns the first span node (depth-first) whose name matches, or nil.
func (ts *TraceSnapshot) Find(name string) *SpanNode {
	var walk func(ns []*SpanNode) *SpanNode
	walk = func(ns []*SpanNode) *SpanNode {
		for _, n := range ns {
			if n.Name == name {
				return n
			}
			if m := walk(n.Children); m != nil {
				return m
			}
		}
		return nil
	}
	return walk(ts.Tree())
}

// WriteWaterfall renders the trace as an ASCII waterfall: one line per span
// with offset, duration, an indent-per-depth tree, and a bar showing where
// the span sits inside the trace's total duration. barWidth <= 0 picks a
// default of 32 columns.
//
//	0.000ms  12.400ms  cluster.topk                [##########]  k=3
//	0.210ms   6.100ms    cluster.shard:s0          [.#####....]  outcome=ok
func WriteWaterfall(w io.Writer, ts *TraceSnapshot, barWidth int) {
	if ts == nil {
		fmt.Fprintln(w, "(no trace)")
		return
	}
	if barWidth <= 0 {
		barWidth = 32
	}
	total := ts.DurationMS
	for _, ss := range ts.Spans {
		if end := ss.StartMS + ss.DurationMS; end > total {
			total = end
		}
	}
	fmt.Fprintf(w, "trace %s  total %.3fms  spans %d\n", ts.QueryID, ts.DurationMS, len(ts.Spans))
	if ts.ParentSpan != "" {
		fmt.Fprintf(w, "remote parent span %s\n", ts.ParentSpan)
	}

	// Column width for the name+indent cell, bounded for sanity.
	nameWidth := 0
	var measure func(ns []*SpanNode, depth int)
	measure = func(ns []*SpanNode, depth int) {
		for _, n := range ns {
			if w := 2*depth + len(n.Name); w > nameWidth {
				nameWidth = w
			}
			measure(n.Children, depth+1)
		}
	}
	roots := ts.Tree()
	measure(roots, 0)
	if nameWidth > 48 {
		nameWidth = 48
	}

	var render func(ns []*SpanNode, depth int)
	render = func(ns []*SpanNode, depth int) {
		for _, n := range ns {
			name := strings.Repeat("  ", depth) + n.Name
			fmt.Fprintf(w, "%10.3fms %10.3fms  %-*s  [%s]%s\n",
				n.StartMS, n.DurationMS, nameWidth, name,
				bar(n.StartMS, n.DurationMS, total, barWidth), attrSuffix(n.Attrs))
			render(n.Children, depth+1)
		}
	}
	render(roots, 0)
}

// bar draws the span's position within [0,total) as barWidth cells: '.'
// outside the span, '#' inside (at least one '#' for any finished span).
func bar(startMS, durMS, totalMS float64, width int) string {
	cells := make([]byte, width)
	for i := range cells {
		cells[i] = '.'
	}
	if totalMS > 0 {
		lo := int(startMS / totalMS * float64(width))
		hi := int((startMS + durMS) / totalMS * float64(width))
		if lo < 0 {
			lo = 0
		}
		if lo >= width {
			lo = width - 1
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for i := lo; i < hi; i++ {
			cells[i] = '#'
		}
	}
	return string(cells)
}

// attrSuffix renders span attributes as "  k=v k=v", keys sorted, truncated
// so one noisy attribute cannot wreck the layout.
func attrSuffix(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := fmt.Sprintf("%v", attrs[k])
		if len(v) > 60 {
			v = v[:57] + "..."
		}
		parts = append(parts, k+"="+v)
	}
	return "  " + strings.Join(parts, " ")
}
