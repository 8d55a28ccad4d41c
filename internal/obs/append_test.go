package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"svqact/internal/testenv"
)

// pinClock makes the trace clock read *at until the test ends.
func pinClock(t testing.TB, at *time.Time) {
	t.Helper()
	prev := now
	now = func() time.Time { return *at }
	t.Cleanup(func() { now = prev })
}

// Strings that exercise every escape of encoding/json.
var fuzzStrings = []string{
	"", "k", "plain", "a<b>&c", "q\"uote\\", "ctl\x00\x01\x1f\t\n\r\b\f\x7f",
	"sep\u2028\u2029", "bad\xffutf8\xe2\x82", "\u00e9\u4e2d\U0001F600", "s1", "s1/s2",
}

// fuzzValues covers every scalar kind an attribute may hold, floats at the
// edges of encoding/json's formats, and values only json.Marshal writes.
var fuzzValues = []any{
	nil, true, false, 0, 1, -7, 300, math.MaxInt64, int8(-8), int16(1600), int32(-32000), int64(math.MinInt64),
	uint(1), uint8(255), uint16(65535), uint32(1 << 31), uint64(math.MaxUint64), uintptr(42),
	0.0, math.Copysign(0, -1), 1.5, 1e-6, 1e-7, 9.999e-7, 1e20, 1e21, 5e-324, math.SmallestNonzeroFloat64 * 3,
	0.1, 123456.789, math.NaN(), math.Inf(1), math.Inf(-1),
	float32(0.1), float32(1e-7), float32(1e21), float32(math.NaN()),
	json.Number("12.5"), json.Number("not a number"), []int{1, 2}, []string{"<x>"},
	struct {
		A string `json:"a"`
		B float64
	}{"&", 2}, map[string]any{"z": 1, "a": "<"}, map[string]any{"bad": math.Inf(-1)},
}

// program decodes fuzz bytes as trace operations.
type program struct {
	b []byte
	i int
}

func (p *program) more() bool { return p.i < len(p.b) }

func (p *program) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

func (p *program) pick(n int) int { return p.next() % n }

func (p *program) str() string { return fuzzStrings[p.pick(len(fuzzStrings))] }

// float is a finite or special offset/duration for a grafted span.
func (p *program) float() float64 {
	fs := []float64{0, 1, 2.5, 1e-7, 1e21, math.Copysign(0, -1), 5e-324, -3, math.NaN(), math.Inf(1)}
	return fs[p.pick(len(fs))]
}

// remote builds a grafted snapshot: ids and parents from a small set (so
// dangling, self and duplicate references occur), some spans without ids.
func (p *program) remote() *TraceSnapshot {
	ids := []string{"", "", "s1", "s2", "s3", "x", "g1"}
	ts := &TraceSnapshot{QueryID: p.str(), DurationMS: p.float()}
	for n := p.pick(5); n > 0; n-- {
		ss := SpanSnapshot{Name: p.str(), ID: ids[p.pick(len(ids))], Parent: ids[p.pick(len(ids))], StartMS: p.float(), DurationMS: p.float()}
		if p.pick(2) == 0 {
			ss.Attrs = map[string]any{p.str(): fuzzValues[p.pick(len(fuzzValues))]}
		}
		ts.Spans = append(ts.Spans, ss)
	}
	return ts
}

// run executes the program on a fresh trace under a pinned clock that
// only the program moves, so equal starts (the name and creation-order
// tiebreaks) are common.
func (p *program) run(t *testing.T, clock *time.Time) *Trace {
	tr := NewTrace(p.str())
	ctx := WithTrace(context.Background(), tr)
	var spans []*Span
	span := func() *Span {
		if len(spans) == 0 {
			return nil
		}
		return spans[p.pick(len(spans))]
	}
	for p.more() {
		switch p.pick(8) {
		case 0: // live span, under a context span or at the root
			spans = append(spans, StartSpan(WithSpan(ctx, span()), p.str()))
		case 1: // pre-measured span
			start := clock.Add(-time.Duration(p.next()) * time.Microsecond)
			spans = append(spans, tr.AddSpanUnder(span(), p.str(), start, time.Duration(p.next())*time.Millisecond))
		case 2, 3:
			span().SetAttr(p.str(), fuzzValues[p.pick(len(fuzzValues))])
		case 4:
			span().End()
		case 5:
			span().Graft(p.remote())
		case 6:
			*clock = clock.Add(time.Duration(p.next()) * 1500 * time.Nanosecond)
		case 7:
			tr.SetRemoteParent(p.str())
		}
	}
	return tr
}

// comparable reports whether the referee assembly is defined on tr: every
// graft point's remote ids (as synthesized) are unique, and no grafted
// offset is NaN (the old comparator had no order for it).
func comparable(tr *Trace) bool {
	for _, s := range tr.spans {
		seen := map[string]bool{}
		for _, g := range s.grafts {
			gen := 0
			for _, gs := range g.Spans {
				id := gs.ID
				if id == "" {
					gen++
					id = "g" + strconv.Itoa(gen)
				}
				if seen[id] || math.IsNaN(gs.StartMS) {
					return false
				}
				seen[id] = true
			}
		}
	}
	return true
}

// checkAppend is the byte-identity contract: AppendJSON writes
// json.Marshal(Snapshot()) from the live tree, the snapshot's own
// AppendJSON writes the same, and all three reject the same values.
func checkAppend(t *testing.T, tr *Trace) {
	t.Helper()
	snap := tr.Snapshot()
	want, werr := json.Marshal(snap)
	prefix := []byte("prefix")
	for name, app := range map[string]func([]byte) ([]byte, error){
		"Trace.AppendJSON":         tr.AppendJSON,
		"TraceSnapshot.AppendJSON": snap.AppendJSON,
	} {
		got, gerr := app(prefix)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s error %v, json.Marshal error %v", name, gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() || !bytes.Equal(got, prefix) {
				t.Fatalf("%s: error %q with %q written, json.Marshal error %q", name, gerr, got, werr)
			}
			continue
		}
		if !bytes.Equal(got, append(prefix[:len(prefix):len(prefix)], want...)) {
			t.Fatalf("%s wrote\n%s\njson.Marshal wrote\n%s", name, got[len(prefix):], want)
		}
	}
	if comparable(tr) {
		if got, want := fmt.Sprintf("%+v", snap), fmt.Sprintf("%+v", refSnapshot(tr)); got != want {
			t.Fatalf("Snapshot assembled\n%s\nreferee assembled\n%s", got, want)
		}
	}
}

func FuzzTraceAppendMatchesSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 2, 4, 1, 0, 2, 7, 0, 5})
	f.Add([]byte{1, 0, 3, 1, 0, 5, 5, 9, 2, 1, 2, 6, 40, 8, 5, 0, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 3, 2, 0, 20, 30, 2, 0, 4, 33, 6, 1, 0, 2, 0, 7, 7, 3, 0, 13, 14})
	f.Add([]byte("\x00\x02\x08\x00\x00\x02\x00\x01\x05\x00\x04\x02\x03\x04\x05\x06\x05\x00\x03\x01\x02\x03\x04\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := time.Unix(1700000000, 0)
		pinClock(t, &clock)
		checkAppend(t, (&program{b: data}).run(t, &clock))
	})
}

// TestTraceAppendGrafts pins the graft cases the fuzzer must keep reaching:
// remote spans with and without ids, a dangling parent, a live span.
func TestTraceAppendGrafts(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	pinClock(t, &clock)
	tr := NewTrace("coord")
	tr.SetRemoteParent("s9")
	root := StartSpan(WithTrace(context.Background(), tr), "cluster.topk")
	shard := root.StartChild("cluster.shard:<s0>")
	shard.SetAttr("replica", "s0-r1").SetAttr("attempts", 2).SetAttr("replica", "s0-r0")
	shard.Graft(&TraceSnapshot{QueryID: "q", Spans: []SpanSnapshot{
		{Name: "rank.topk", ID: "s1", StartMS: 4, DurationMS: 30, Attrs: map[string]any{"k": 3.0, "b": "\u2028"}},
		{Name: "predicate:act", ID: "s2", Parent: "s1", StartMS: 6, DurationMS: 1e-7},
		{Name: "orphan", ID: "s3", Parent: "gone", StartMS: 1e21},
	}})
	shard.Graft(&TraceSnapshot{Spans: []SpanSnapshot{{Name: "engine"}, {Name: "plan.order", StartMS: 1}}})
	clock = clock.Add(3 * time.Millisecond)
	shard.End()
	clock = clock.Add(time.Microsecond)
	checkAppend(t, tr)
	if got := len(tr.Snapshot().Spans); got != 7 {
		t.Errorf("spans = %d, want 7", got)
	}
	if attrs := tr.Snapshot().Spans[1].Attrs; attrs["replica"] != "s0-r0" || len(attrs) != 2 {
		t.Errorf("a repeated SetAttr key must replace its value: %v", attrs)
	}
}

// videoTrace builds a trace of the shape one fleet video's run records.
func videoTrace() *Trace {
	tr := NewTrace("00f1e2d3c4b5a697:q5_v3")
	start := now()
	eng := tr.AddSpanUnder(nil, "engine.run", start, 3*time.Millisecond)
	eng.SetAttr("mode", "SVAQD").SetAttr("clauses", 2).SetAttr("clips_processed", 412).
		SetAttr("num_clips", 412).SetAttr("flagged_clips", 0)
	tr.AddSpanUnder(eng, "plan.order", start, 0).SetAttr("adaptive", true).SetAttr("order", "obj:person,act:volleyball").
		SetAttr("replans", 1).SetAttr("skipped_evaluations", int64(301)).SetAttr("saved_cost_ms", 1234.5)
	for _, name := range []string{"predicate:act:volleyball", "predicate:obj:person"} {
		tr.AddSpanUnder(eng, name, start, 2*time.Millisecond).SetAttr("kind", "action").
			SetAttr("evaluated_clips", 111).SetAttr("units_scored", int64(5123)).SetAttr("k_crit", 4).
			SetAttr("background", 0.0123).SetAttr("k_crit_recomputes", 7)
	}
	return tr
}

// TestTraceAppendAllocsSteadyState: writing a live trace into a warm
// buffer costs no allocation.
func TestTraceAppendAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := videoTrace()
	buf, err := tr.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = tr.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON allocates %v times per trace, want 0", n)
	}
}

func BenchmarkTraceAppendJSON(b *testing.B) {
	tr := videoTrace()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = tr.AppendJSON(buf[:0])
		}
	})
	b.Run("marshal-snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(tr.Snapshot())
		}
	})
}
