package obs

import (
	"sort"
	"strconv"
	"time"
)

// refRec is one flattened span during snapshot assembly.
type refRec struct {
	SpanSnapshot
	seq int // creation order tiebreak, preserves pre-tree snapshot ordering
}

// refSnapshot is the snapshot assembly Trace.Snapshot replaced: string-keyed
// maps from span id to record and to children, and sort.Slice. It is kept
// as the referee of the index-based assembly (only the attribute copy and
// the clock, now instead of time.Since, are adapted to the live span).
// Where a span's grafts repeat an id it emits the id's children under
// every copy, and a cycle through such copies recurses without end; the
// assembly resolves each id to one span, so the two are compared only on
// trees whose graft ids are unique per graft point.
func refSnapshot(t *Trace) *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	remoteParent := t.remoteParent
	t.mu.Unlock()

	snap := &TraceSnapshot{
		QueryID:    t.id,
		ParentSpan: remoteParent,
		DurationMS: float64(now().Sub(t.start)) / float64(time.Millisecond),
	}

	recs := make([]refRec, 0, len(spans))
	seq := 0
	for _, s := range spans {
		s.mu.Lock()
		d := s.dur
		if !s.ended {
			d = now().Sub(s.start)
		}
		var attrs map[string]any
		if len(s.attrs) > 0 {
			attrs = make(map[string]any, len(s.attrs))
			for _, kv := range s.attrs {
				attrs[kv.key] = kv.value
			}
		}
		grafts := append([]*TraceSnapshot(nil), s.grafts...)
		parent := ""
		if s.parent != nil {
			parent = s.parent.ID()
		}
		rec := refRec{
			SpanSnapshot: SpanSnapshot{
				Name:       s.name,
				ID:         s.ID(),
				Parent:     parent,
				StartMS:    float64(s.start.Sub(t.start)) / float64(time.Millisecond),
				DurationMS: float64(d) / float64(time.Millisecond),
				Attrs:      attrs,
			},
			seq: seq,
		}
		s.mu.Unlock()
		seq++
		recs = append(recs, rec)
		for _, g := range grafts {
			gen := 0
			for _, gs := range g.Spans {
				gid := gs.ID
				if gid == "" {
					// Remote process predates span ids; synthesize stable
					// ones so the subtree still splices.
					gen++
					gid = "g" + strconv.Itoa(gen)
				}
				child := refRec{
					SpanSnapshot: SpanSnapshot{
						Name: gs.Name,
						ID:   rec.ID + "/" + gid,
						// Re-anchor: the remote offset is relative to the
						// remote trace start; treat it as relative to the
						// graft-point span instead. No wall clocks cross
						// the process boundary, so skew cannot reorder.
						StartMS:    rec.StartMS + gs.StartMS,
						DurationMS: gs.DurationMS,
						Attrs:      gs.Attrs,
					},
					seq: seq,
				}
				if gs.Parent != "" {
					child.Parent = rec.ID + "/" + gs.Parent
				} else {
					child.Parent = rec.ID
				}
				seq++
				recs = append(recs, child)
			}
		}
	}

	// Assemble the tree and emit depth-first.
	byID := make(map[string]int, len(recs))
	for i, r := range recs {
		byID[r.ID] = i
	}
	children := make(map[string][]int, len(recs))
	var roots []int
	for i, r := range recs {
		if r.Parent != "" {
			if pi, ok := byID[r.Parent]; ok && pi != i {
				children[r.Parent] = append(children[r.Parent], i)
				continue
			}
		}
		roots = append(roots, i)
	}
	less := func(a, b int) bool {
		ra, rb := &recs[a], &recs[b]
		if ra.StartMS != rb.StartMS {
			return ra.StartMS < rb.StartMS
		}
		if ra.Name != rb.Name {
			return ra.Name < rb.Name
		}
		return ra.seq < rb.seq
	}
	sort.Slice(roots, func(i, j int) bool { return less(roots[i], roots[j]) })
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return less(c[i], c[j]) })
	}
	snap.Spans = make([]SpanSnapshot, 0, len(recs))
	var emit func(i int)
	emit = func(i int) {
		snap.Spans = append(snap.Spans, recs[i].SpanSnapshot)
		for _, c := range children[recs[i].ID] {
			emit(c)
		}
	}
	for _, r := range roots {
		emit(r)
	}
	return snap
}
