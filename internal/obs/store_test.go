package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func mkSnap(id string, durMS float64) *TraceSnapshot {
	return &TraceSnapshot{
		QueryID:    id,
		DurationMS: durMS,
		Spans:      []SpanSnapshot{{Name: "engine", ID: "s1", DurationMS: durMS}},
	}
}

func TestTraceStoreRetention(t *testing.T) {
	st := NewTraceStore(TraceStoreConfig{Capacity: 8, SampleEvery: 4, MinTailCount: 4})

	// Non-ok outcomes are always kept, reason = outcome verbatim.
	reason, kept := st.Offer(mkSnap("e1", 1), TraceMeta{SQL: "SELECT 1", Outcome: "degraded"})
	if !kept || reason != "degraded" {
		t.Fatalf("degraded offer: reason=%q kept=%v", reason, kept)
	}
	if got := st.Get("e1"); got == nil || got.Outcome != "degraded" || got.SQL != "SELECT 1" {
		t.Fatalf("Get(e1) = %+v", got)
	}

	// Healthy fast queries are sampled 1-in-N; warm the latency histogram
	// with uniform fast queries at the same time.
	sampled := 0
	for i := 0; i < 12; i++ {
		if _, kept := st.Offer(mkSnap(fmt.Sprintf("q%02d", i), 1), TraceMeta{Outcome: "ok"}); kept {
			sampled++
		}
	}
	if sampled == 0 || sampled == 12 {
		t.Errorf("sampling kept %d of 12, want a strict subset", sampled)
	}

	// A tail-latency outlier is retained once the gate has engaged.
	reason, kept = st.Offer(mkSnap("slow1", 5000), TraceMeta{Outcome: "ok"})
	if !kept || reason != "tail" {
		t.Errorf("tail offer: reason=%q kept=%v", reason, kept)
	}

	// Sampling disabled: a healthy fast query inside the distribution is
	// dropped.
	st2 := NewTraceStore(TraceStoreConfig{SampleEvery: -1})
	if reason, kept := st2.Offer(mkSnap("x", 1), TraceMeta{Outcome: "ok"}); kept {
		t.Errorf("ok trace retained with sampling off: %q", reason)
	}
	// Nil-safety.
	var nilStore *TraceStore
	if _, kept := nilStore.Offer(mkSnap("y", 1), TraceMeta{}); kept {
		t.Error("nil store retained a trace")
	}
	if nilStore.Get("y") != nil || nilStore.Len() != 0 || nilStore.Index() != nil {
		t.Error("nil store accessors should return zero values")
	}
}

// TestTraceStoreSamplesOneInN offers 64 healthy traces, with the tail gate
// held off, and expects exactly one in every N kept — N = 1 keeps them all.
func TestTraceStoreSamplesOneInN(t *testing.T) {
	for _, tc := range []struct{ every, want int }{{1, 64}, {2, 32}, {16, 4}} {
		st := NewTraceStore(TraceStoreConfig{Capacity: 64, SampleEvery: tc.every, MinTailCount: 1 << 20})
		kept := 0
		for i := 0; i < 64; i++ {
			reason, ok := st.Offer(mkSnap(fmt.Sprintf("q%02d", i), 1), TraceMeta{Outcome: "ok"})
			if ok {
				kept++
				if reason != "sampled" {
					t.Errorf("N=%d: offer %d kept for %q, want sampled", tc.every, i, reason)
				}
			}
		}
		if kept != tc.want || st.Len() != tc.want {
			t.Errorf("N=%d: kept %d of 64 (store holds %d), want %d", tc.every, kept, st.Len(), tc.want)
		}
	}
}

func TestTraceStoreEvictionAndIndexOrder(t *testing.T) {
	st := NewTraceStore(TraceStoreConfig{Capacity: 4, SampleEvery: -1})
	for i := 0; i < 10; i++ {
		st.Offer(mkSnap(fmt.Sprintf("t%d", i), 1), TraceMeta{Outcome: "error"})
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", st.Len())
	}
	idx := st.Index()
	want := []string{"t9", "t8", "t7", "t6"}
	for i, e := range idx {
		if e.ID != want[i] {
			t.Errorf("index[%d] = %s, want %s (newest first)", i, e.ID, want[i])
		}
	}
	if st.Get("t0") != nil {
		t.Error("evicted trace still reachable by id")
	}
	if st.Get("t9") == nil {
		t.Error("latest trace not reachable by id")
	}
}

// TestTraceStoreConcurrent hammers insert/read/evict from many goroutines
// with a tiny ring so eviction happens constantly; meaningful under -race.
func TestTraceStoreConcurrent(t *testing.T) {
	st := NewTraceStore(TraceStoreConfig{Capacity: 8, SampleEvery: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				outcome := "ok"
				if i%3 == 0 {
					outcome = "error"
				}
				st.Offer(mkSnap(id, float64(i%7)), TraceMeta{SQL: "SELECT x", Outcome: outcome})
				if i%5 == 0 {
					st.Index()
					st.Get(id)
					st.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != 8 {
		t.Errorf("Len = %d, want full ring of 8", st.Len())
	}
	for _, e := range st.Index() {
		if st.Get(e.ID) == nil {
			t.Errorf("indexed trace %s not reachable by id", e.ID)
		}
	}
}

func TestTraceStoreHandler(t *testing.T) {
	st := NewTraceStore(TraceStoreConfig{Capacity: 4, SampleEvery: -1})
	st.Offer(mkSnap("deadbeefdeadbeef", 2), TraceMeta{SQL: "SELECT 1", Outcome: "error"})
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	var idx traceIndexResponse
	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Count != 1 || len(idx.Traces) != 1 || idx.Traces[0].ID != "deadbeefdeadbeef" {
		t.Fatalf("index = %+v", idx)
	}

	var st1 StoredTrace
	resp, err = srv.Client().Get(srv.URL + "/debug/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st1.Trace == nil || st1.Trace.QueryID != "deadbeefdeadbeef" || len(st1.Trace.Spans) != 1 {
		t.Fatalf("stored trace = %+v", st1)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !strings.Contains(string(body[:n]), "no retained trace") {
		t.Errorf("missing trace: status=%d body=%s", resp.StatusCode, body[:n])
	}

	req, _ := srv.Client().Post(srv.URL+"/debug/traces", "application/json", nil)
	if req.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", req.StatusCode)
	}
	req.Body.Close()
}

func TestSQLDigest(t *testing.T) {
	a := SQLDigest("SELECT  x\n FROM y")
	b := SQLDigest("SELECT x FROM y")
	if a != b {
		t.Errorf("digest not whitespace-normalized: %q vs %q", a, b)
	}
	if len(a) != 16 {
		t.Errorf("digest %q, want 16 hex chars", a)
	}
	if SQLDigest("") != "" {
		t.Error("empty SQL should have empty digest")
	}
}
