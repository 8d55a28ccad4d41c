package obs

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"svqact/internal/jsonw"
)

// node is one span of an assembled trace tree: a local span, or a span
// grafted from a remote snapshot under one.
type node struct {
	span   *Span         // local span; nil for a grafted one
	remote *SpanSnapshot // grafted span
	// id and parent are a grafted span's composite ids ("s4/s2" under
	// "s4"); parent is kept as written even when it resolves to nothing.
	id, parent string
	name       string
	startMS    float64
	up         int32 // parent node, or -1 for a root
}

// assembly is the scratch of one tree assembly, pooled across calls.
type assembly struct {
	nodes []node
	local []int32 // span index (creation order) → node index
	// off and kids list every node's children: those of node k are
	// kids[off[k]:off[k+1]], and the roots sit at k = len(nodes).
	off, kids []int32
	order     []int32  // nodes, depth-first
	keys      []int32  // one local span's attributes, by key
	names     []string // one snapshot span's attribute keys
}

var assemblies = sync.Pool{New: func() any { return new(assembly) }}

func getAssembly() *assembly { return assemblies.Get().(*assembly) }

func putAssembly(a *assembly) {
	clear(a.nodes) // drop the span and snapshot references
	clear(a.names)
	assemblies.Put(a)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// elapsed is the span's duration: fixed once ended, so far while live. The
// caller holds s.mu.
func (s *Span) elapsed() time.Duration {
	if s.ended {
		return s.dur
	}
	return now().Sub(s.start)
}

// assemble lays the trace's spans out as a tree in a.order, depth-first:
// siblings by start offset, then name, then creation order, with grafted
// remote subtrees spliced under their graft point and their offsets
// re-anchored to its start. Local spans are placed by index (span ids are
// dense creation indices); only grafted ids are looked up by name. It
// returns the trace's remote parent.
func (t *Trace) assemble(a *assembly) (remoteParent string) {
	t.mu.Lock()
	spans, remoteParent := t.spans, t.remoteParent
	t.mu.Unlock()

	a.nodes, a.local = a.nodes[:0], a.local[:0]
	for _, s := range spans {
		up := int32(-1)
		if s.parent != nil {
			up = a.local[s.parent.id-1]
		}
		a.local = append(a.local, int32(len(a.nodes)))
		a.nodes = append(a.nodes, node{span: s, name: s.name, startMS: ms(s.start.Sub(t.start)), up: up})
		s.mu.Lock()
		grafts := s.grafts
		s.mu.Unlock()
		if len(grafts) > 0 {
			a.graft(s, grafts)
		}
	}
	a.link()
	return remoteParent
}

// graft appends the spans of s's grafts, just placed as the last node.
// Remote ids resolve among all of s's grafted spans (the last span of an
// id wins); a remote span without an id gets "g1", "g2", ... in its graft,
// one without a parent hangs under s, and one whose parent resolves to
// nothing or to itself is a root.
func (a *assembly) graft(s *Span, grafts []*TraceSnapshot) {
	at := int32(len(a.nodes) - 1)
	base, local := a.nodes[at].startMS, s.ID()
	first := len(a.nodes)
	last := map[string]int32{}
	for _, g := range grafts {
		gen := 0
		for k := range g.Spans {
			gs := &g.Spans[k]
			gid := gs.ID
			if gid == "" {
				gen++
				gid = "g" + strconv.Itoa(gen)
			}
			parent := local
			if gs.Parent != "" {
				parent = local + "/" + gs.Parent
			}
			last[gid] = int32(len(a.nodes))
			// Re-anchor: the remote offset is relative to the remote
			// trace start; treat it as relative to the graft point
			// instead. No wall clocks cross the process boundary, so skew
			// cannot reorder.
			a.nodes = append(a.nodes, node{remote: gs, id: local + "/" + gid, parent: parent,
				name: gs.Name, startMS: base + gs.StartMS, up: at})
		}
	}
	for i := first; i < len(a.nodes); i++ {
		if p := a.nodes[i].remote.Parent; p != "" {
			up, ok := last[p]
			if !ok || up == int32(i) {
				up = -1
			}
			a.nodes[i].up = up
		}
	}
}

// link sorts every node's children and lays the tree out depth-first.
func (a *assembly) link() {
	n := len(a.nodes)
	slot := func(i int) int {
		if up := a.nodes[i].up; up >= 0 {
			return int(up)
		}
		return n
	}
	a.off = append(a.off[:0], make([]int32, n+2)...)
	for i := range a.nodes {
		a.off[slot(i)]++
	}
	for k := 1; k < len(a.off); k++ {
		a.off[k] += a.off[k-1]
	}
	a.kids = append(a.kids[:0], make([]int32, n)...)
	for i := n - 1; i >= 0; i-- {
		k := slot(i)
		a.off[k]--
		a.kids[a.off[k]] = int32(i)
	}
	for k := 0; k <= n; k++ {
		slices.SortFunc(a.kids[a.off[k]:a.off[k+1]], a.sibling)
	}
	a.order = a.order[:0]
	a.walk(int32(n))
}

// sibling orders two children of one parent: by start offset, then name,
// then creation order.
func (a *assembly) sibling(x, y int32) int {
	nx, ny := &a.nodes[x], &a.nodes[y]
	switch {
	case nx.startMS < ny.startMS:
		return -1
	case nx.startMS > ny.startMS:
		return 1
	}
	if c := strings.Compare(nx.name, ny.name); c != 0 {
		return c
	}
	return int(x - y)
}

// walk appends k's subtrees to a.order, depth-first.
func (a *assembly) walk(k int32) {
	for _, c := range a.kids[a.off[k]:a.off[k+1]] {
		a.order = append(a.order, c)
		a.walk(c)
	}
}

// Snapshot renders the trace for the response body. Live spans still open
// report their duration so far. The span list is depth-first: siblings are
// ordered by start offset, then name, then creation order; grafted remote
// subtrees are spliced under their graft point with offsets re-anchored to
// the parent span's start.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	a := getAssembly()
	defer putAssembly(a)
	remoteParent := t.assemble(a)
	snap := &TraceSnapshot{
		QueryID:    t.id,
		ParentSpan: remoteParent,
		DurationMS: ms(now().Sub(t.start)),
		Spans:      make([]SpanSnapshot, 0, len(a.order)),
	}
	for _, i := range a.order {
		snap.Spans = append(snap.Spans, a.nodes[i].snapshot())
	}
	return snap
}

func (n *node) snapshot() SpanSnapshot {
	if g := n.remote; g != nil {
		return SpanSnapshot{Name: g.Name, ID: n.id, Parent: n.parent, StartMS: n.startMS, DurationMS: g.DurationMS, Attrs: g.Attrs}
	}
	s := n.span
	ss := SpanSnapshot{Name: s.name, ID: s.ID(), StartMS: n.startMS}
	if s.parent != nil {
		ss.Parent = s.parent.ID()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss.DurationMS = ms(s.elapsed())
	if len(s.attrs) > 0 {
		ss.Attrs = make(map[string]any, len(s.attrs))
		for _, kv := range s.attrs {
			ss.Attrs[kv.key] = kv.value
		}
	}
	return ss
}

// AppendJSON appends the trace's JSON form to dst: the bytes
// json.Marshal(t.Snapshot()) gives at the same instant, written from the
// live span tree without building the snapshot. Like json.Marshal it fails
// on a float JSON cannot hold (NaN, ±Inf) or any value json.Marshal
// rejects; dst comes back unextended then.
func (t *Trace) AppendJSON(dst []byte) ([]byte, error) {
	if t == nil {
		return append(dst, "null"...), nil
	}
	a := getAssembly()
	defer putAssembly(a)
	remoteParent := t.assemble(a)
	out, err := appendTraceHead(dst, t.id, remoteParent, ms(now().Sub(t.start)))
	if err != nil {
		return dst, err
	}
	out = append(out, '[')
	for k, i := range a.order {
		if k > 0 {
			out = append(out, ',')
		}
		if out, err = a.appendNode(out, &a.nodes[i]); err != nil {
			return dst, err
		}
	}
	return append(out, "]}"...), nil
}

// AppendJSON appends the snapshot's JSON form to dst: the bytes
// json.Marshal(ts) gives. dst comes back unextended on an error.
func (ts *TraceSnapshot) AppendJSON(dst []byte) ([]byte, error) {
	if ts == nil {
		return append(dst, "null"...), nil
	}
	out, err := appendTraceHead(dst, ts.QueryID, ts.ParentSpan, ts.DurationMS)
	if err != nil {
		return dst, err
	}
	if ts.Spans == nil {
		return append(out, "null}"...), nil
	}
	a := getAssembly()
	defer putAssembly(a)
	out = append(out, '[')
	for k := range ts.Spans {
		if k > 0 {
			out = append(out, ',')
		}
		ss := &ts.Spans[k]
		if out, err = a.appendSpan(out, ss.Name, ss.ID, ss.Parent, ss.StartMS, ss.DurationMS, ss.Attrs); err != nil {
			return dst, err
		}
	}
	return append(out, "]}"...), nil
}

// appendTraceHead writes a TraceSnapshot's members up to the span list's
// value.
func appendTraceHead(dst []byte, queryID, parentSpan string, durationMS float64) ([]byte, error) {
	dst = append(dst, `{"query_id":`...)
	dst = jsonw.String(dst, queryID)
	if parentSpan != "" {
		dst = append(dst, `,"parent_span":`...)
		dst = jsonw.String(dst, parentSpan)
	}
	dst = append(dst, `,"duration_ms":`...)
	dst, err := jsonw.Float(dst, durationMS)
	return append(dst, `,"spans":`...), err
}

// appendNode writes one assembled span as its SpanSnapshot would marshal.
// A local span is written under its lock, straight from its fields.
func (a *assembly) appendNode(dst []byte, n *node) ([]byte, error) {
	if g := n.remote; g != nil {
		return a.appendSpan(dst, g.Name, n.id, n.parent, n.startMS, g.DurationMS, g.Attrs)
	}
	s := n.span
	dst = append(dst, `{"name":`...)
	dst = jsonw.String(dst, s.name)
	dst = append(dst, `,"id":"s`...)
	dst = strconv.AppendInt(dst, int64(s.id), 10)
	if s.parent != nil {
		dst = append(dst, `","parent":"s`...)
		dst = strconv.AppendInt(dst, int64(s.parent.id), 10)
	}
	dst = append(dst, `","start_ms":`...)
	dst, _ = jsonw.Float(dst, n.startMS) // a local offset is always finite
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, `,"duration_ms":`...)
	dst, _ = jsonw.Float(dst, ms(s.elapsed()))
	if len(s.attrs) == 0 {
		return append(dst, '}'), nil
	}
	a.keys = a.keys[:0]
	for i := range s.attrs {
		a.keys = append(a.keys, int32(i))
	}
	slices.SortFunc(a.keys, func(x, y int32) int { return strings.Compare(s.attrs[x].key, s.attrs[y].key) })
	dst = append(dst, `,"attrs":{`...)
	for k, i := range a.keys {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonw.String(dst, s.attrs[i].key)
		dst = append(dst, ':')
		var err error
		if dst, err = jsonw.Value(dst, s.attrs[i].value); err != nil {
			return dst, err
		}
	}
	return append(dst, "}}"...), nil
}

// appendSpan writes a SpanSnapshot with the given members.
func (a *assembly) appendSpan(dst []byte, name, id, parent string, startMS, durationMS float64, attrs map[string]any) ([]byte, error) {
	dst = append(dst, `{"name":`...)
	dst = jsonw.String(dst, name)
	if id != "" {
		dst = append(dst, `,"id":`...)
		dst = jsonw.String(dst, id)
	}
	if parent != "" {
		dst = append(dst, `,"parent":`...)
		dst = jsonw.String(dst, parent)
	}
	dst = append(dst, `,"start_ms":`...)
	dst, err := jsonw.Float(dst, startMS)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"duration_ms":`...)
	if dst, err = jsonw.Float(dst, durationMS); err != nil {
		return dst, err
	}
	if len(attrs) == 0 {
		return append(dst, '}'), nil
	}
	a.names = a.names[:0]
	for k := range attrs {
		a.names = append(a.names, k)
	}
	slices.Sort(a.names)
	dst = append(dst, `,"attrs":{`...)
	for k, key := range a.names {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonw.String(dst, key)
		dst = append(dst, ':')
		if dst, err = jsonw.Value(dst, attrs[key]); err != nil {
			return dst, err
		}
	}
	return append(dst, "}}"...), nil
}
