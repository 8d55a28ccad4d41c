package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"svqact/internal/obs"
	"svqact/internal/sqlq"
	"svqact/internal/testenv"
)

// TestQueryAppendMatchesMarshal holds the hand-written /query body to the
// struct tags: on random responses reaching every member of QueryResponse
// and its embedded Answer (plan blocks, tiers, sequences with the ranked
// and repository members, snapshot traces), appendJSON writes
// encoding/json's bytes.
func TestQueryAppendMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		var resp QueryResponse
		fill(r, reflect.ValueOf(&resp).Elem(), 4)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		got, err := resp.appendJSON([]byte("x"))
		if err != nil || !bytes.Equal(got, append([]byte("x"), want.Bytes()...)) {
			t.Fatalf("response %d: appendJSON (%v)\n%s\nencoding/json\n%s", i, err, got[1:], want.Bytes())
		}
		for _, m := range []string{"k", "candidates", "random_accesses", "video", "lower", "upper", "exact", "truncated", "residual_upper", "generation", "extended", "flagged_clips", "plan", "trace"} {
			seen[m] = seen[m] || bytes.Contains(got, []byte(`"`+m+`":`))
		}
	}
	for m, ok := range seen {
		if !ok {
			t.Errorf("no random response wrote member %q; the test would not hold it to its tag", m)
		}
	}
	resp := QueryResponse{}
	resp.Sequences = []Sequence{{Upper: math.Inf(1)}}
	if _, err := resp.appendJSON(nil); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("an infinite bound must fail the body as encoding/json does, got %v", err)
	}
}

// queryBody answers sql as handleQuery does — a traced execution — and
// returns the response with its trace snapshot attached.
func queryBody(tb testing.TB, s *Server, sql string) *QueryResponse {
	tb.Helper()
	st, err := sqlq.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := st.Plan()
	if err != nil {
		tb.Fatal(err)
	}
	trace := obs.NewTrace(obs.NewQueryID())
	resp, err := s.execute(obs.WithTrace(context.Background(), trace), p, QueryRequest{SQL: sql})
	if err != nil {
		tb.Fatal(err)
	}
	resp.QueryID, resp.ElapsedMS, resp.Trace = trace.ID(), 3, trace.Snapshot()
	return resp
}

// TestQueryEncodeAllocsSteadyState: writing a served /query body — an
// online answer with its plan report and trace, a ranked one with bounds —
// into a warm buffer allocates nothing.
func TestQueryEncodeAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Config{Scale: 0.05, Seed: 42, Cascade: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	online := `SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car', 'person')`
	for _, sql := range []string{online, fuzzORGroup, fuzzRanked} {
		resp := queryBody(t, s, sql)
		if len(resp.Trace.Spans) == 0 {
			t.Fatalf("%s: no spans to write", sql)
		}
		buf, err := resp.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		roundTrips[QueryResponse](t, buf)
		if n := testing.AllocsPerRun(100, func() { buf, _ = resp.appendJSON(buf[:0]) }); n != 0 {
			t.Fatalf("%s: appending a /query body allocates %v times, want 0", sql, n)
		}
	}
}

// TestQueryBodyServed: the handler answers /query with the appended body,
// Content-Length included, for online, extended and ranked statements.
func TestQueryBodyServed(t *testing.T) {
	h := New(Config{Scale: 0.05, Seed: 42, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	for _, sql := range []string{fuzzORGroup, fuzzRel, fuzzRanked} {
		rr := postTo(h, "/query", QueryRequest{SQL: sql})
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, rr.Code, rr.Body)
		}
		if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(rr.Body.Len()) {
			t.Errorf("%s: Content-Length = %q for a %d-byte body", sql, cl, rr.Body.Len())
		}
		roundTrips[QueryResponse](t, rr.Body.Bytes())
	}
}
