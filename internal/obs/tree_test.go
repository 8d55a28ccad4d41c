package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// collectNames flattens a snapshot to "name parent" strings so tree-shape
// goldens stay readable.
func collectNames(snap *TraceSnapshot) []string {
	out := make([]string, len(snap.Spans))
	for i, s := range snap.Spans {
		out[i] = s.Name + " " + s.Parent
	}
	return out
}

func TestHierarchicalSnapshotOrdering(t *testing.T) {
	tr := NewTrace("tree1")
	ctx := WithTrace(context.Background(), tr)

	root := StartSpan(ctx, "cluster.topk")
	ctx = WithSpan(ctx, root)
	shard0 := StartSpan(ctx, "cluster.shard:s0")
	shard1 := StartSpan(ctx, "cluster.shard:s1")
	// Children created via explicit parenting and via StartChild both land
	// under their shard.
	tr.AddSpanUnder(shard1, "rank.topk", shard1.start, time.Millisecond)
	shard0.StartChild("rank.topk").End()
	shard1.End()
	shard0.End()
	root.End()

	snap := tr.Snapshot()
	want := []string{
		"cluster.topk ",
		"cluster.shard:s0 s1",
		"rank.topk s2",
		"cluster.shard:s1 s1",
		"rank.topk s3",
	}
	got := collectNames(snap)
	if len(got) != len(want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	// DFS invariant: every span appears after its parent.
	seen := map[string]bool{"": true}
	for _, s := range snap.Spans {
		if !seen[s.Parent] {
			t.Errorf("span %s (%s) emitted before its parent %s", s.ID, s.Name, s.Parent)
		}
		seen[s.ID] = true
	}
}

func TestStartSpanParentsFromContext(t *testing.T) {
	tr := NewTrace("ctx1")
	ctx := WithTrace(context.Background(), tr)
	outer := StartSpan(ctx, "outer")
	inner := StartSpan(WithSpan(ctx, outer), "inner")
	inner.End()
	outer.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(snap.Spans))
	}
	if snap.Spans[1].Name != "inner" || snap.Spans[1].Parent != snap.Spans[0].ID {
		t.Errorf("inner span not parented under outer: %+v", snap.Spans)
	}
	// WithTrace clears any current span, so a fresh trace on the same
	// context chain starts at the root.
	tr2 := NewTrace("ctx2")
	s := StartSpan(WithTrace(WithSpan(ctx, outer), tr2), "root")
	s.End()
	if got := tr2.Snapshot().Spans[0].Parent; got != "" {
		t.Errorf("span under new trace has parent %q, want root", got)
	}
}

func TestCrossTraceParentGuard(t *testing.T) {
	trA, trB := NewTrace("a"), NewTrace("b")
	ctxA := WithTrace(context.Background(), trA)
	spanA := StartSpan(ctxA, "fleet.run_all")
	// A span from trace A must not become a parent inside trace B.
	got := trB.AddSpanUnder(spanA, "engine", time.Now(), time.Millisecond)
	if got == nil {
		t.Fatal("AddSpanUnder returned nil")
	}
	if p := trB.Snapshot().Spans[0].Parent; p != "" {
		t.Errorf("cross-trace parent leaked: parent = %q, want root", p)
	}
}

func TestGraftReanchorsRemoteSubtree(t *testing.T) {
	// Remote (shard) trace: its own offsets, its own span ids, and a wall
	// clock that may be arbitrarily skewed — only offsets cross the wire.
	remote := &TraceSnapshot{
		QueryID:    "feedc0defeedc0de",
		ParentSpan: "s2",
		DurationMS: 40,
		Spans: []SpanSnapshot{
			{Name: "rank.topk", ID: "s1", StartMS: 4, DurationMS: 30},
			{Name: "predicate:act", ID: "s2", Parent: "s1", StartMS: 6, DurationMS: 10},
		},
	}

	tr := NewTrace("coord1")
	ctx := WithTrace(context.Background(), tr)
	root := StartSpan(ctx, "cluster.topk")
	shard := root.StartChild("cluster.shard:s0")
	shard.Graft(remote)
	shard.End()
	root.End()

	snap := tr.Snapshot()
	byName := map[string]SpanSnapshot{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	shardSnap, ok := byName["cluster.shard:s0"]
	if !ok {
		t.Fatalf("no shard span in %v", collectNames(snap))
	}
	rank, ok := byName["rank.topk"]
	if !ok {
		t.Fatalf("grafted rank.topk missing from %v", collectNames(snap))
	}
	if rank.Parent != shardSnap.ID {
		t.Errorf("grafted root parents to %q, want graft point %q", rank.Parent, shardSnap.ID)
	}
	if want := shardSnap.ID + "/s1"; rank.ID != want {
		t.Errorf("grafted span id = %q, want composite %q", rank.ID, want)
	}
	if got, want := rank.StartMS, shardSnap.StartMS+4; got != want {
		t.Errorf("grafted StartMS = %v, want re-anchored %v", got, want)
	}
	pred := byName["predicate:act"]
	if pred.Parent != rank.ID {
		t.Errorf("grafted child parents to %q, want %q", pred.Parent, rank.ID)
	}
	if got, want := pred.StartMS, shardSnap.StartMS+6; got != want {
		t.Errorf("grafted child StartMS = %v, want %v", got, want)
	}
	// The grafted subtree preserves the shard's own spans verbatim apart
	// from id/parent/start rebasing.
	if rank.DurationMS != 30 || pred.DurationMS != 10 {
		t.Errorf("grafted durations changed: %v / %v", rank.DurationMS, pred.DurationMS)
	}
}

func TestGraftSynthesizesIDs(t *testing.T) {
	// Remote snapshots from processes predating span ids still splice.
	remote := &TraceSnapshot{
		QueryID: "old",
		Spans: []SpanSnapshot{
			{Name: "engine", StartMS: 0, DurationMS: 5},
			{Name: "plan.order", StartMS: 1, DurationMS: 1},
		},
	}
	tr := NewTrace("coord2")
	sp := tr.AddSpan("cluster.shard:s0", tr.start, 10*time.Millisecond)
	sp.Graft(remote)
	snap := tr.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("spans = %v", collectNames(snap))
	}
	for _, s := range snap.Spans[1:] {
		if s.Parent != snap.Spans[0].ID {
			t.Errorf("id-less grafted span %q parents to %q, want graft point", s.Name, s.Parent)
		}
		if !strings.Contains(s.ID, "/g") {
			t.Errorf("synthesized id = %q, want composite g-id", s.ID)
		}
	}
}

func TestValidSpanRef(t *testing.T) {
	for ref, want := range map[string]bool{
		"s4":                     true,
		"s4/s2":                  true,
		"cluster.shard:a":        true,
		"a_b-c":                  true,
		"":                       false,
		"s4 s5":                  false,
		"s4\n":                   false,
		strings.Repeat("a", 129): false,
	} {
		if got := ValidSpanRef(ref); got != want {
			t.Errorf("ValidSpanRef(%q) = %v, want %v", ref, got, want)
		}
	}
}

func TestWaterfallRender(t *testing.T) {
	snap := &TraceSnapshot{
		QueryID:    "wf1",
		DurationMS: 10,
		Spans: []SpanSnapshot{
			{Name: "cluster.topk", ID: "s1", StartMS: 0, DurationMS: 10},
			{Name: "cluster.shard:s0", ID: "s2", Parent: "s1", StartMS: 1, DurationMS: 8,
				Attrs: map[string]any{"replica": "s0-r0"}},
		},
	}
	var b strings.Builder
	WriteWaterfall(&b, snap, 20)
	out := b.String()
	for _, want := range []string{"trace wf1", "cluster.topk", "  cluster.shard:s0", "replica=s0-r0", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	WriteWaterfall(&b, nil, 20)
	if !strings.Contains(b.String(), "no trace") {
		t.Errorf("nil snapshot render = %q", b.String())
	}
}
