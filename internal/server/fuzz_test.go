package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The request bodies of /query and /query/batch are the server's trust
// boundary. Both fuzzers POST arbitrary bytes through the full handler stack
// of a small server and require a contained answer: no panic, a status from
// the documented map, a JSON body, and the query ID the request was sent
// under. Every 200 from /query, whose body is appended by hand, must also be
// encoding/json's re-encoding of its own decode. Run them with
//
//	go test -run '^$' -fuzz '^FuzzQueryBody$' ./internal/server
//	go test -run '^$' -fuzz '^FuzzBatchBody$' ./internal/server

// documentedStatus is every status /query and /query/batch may answer a POST
// with: 500 is always a bug.
var documentedStatus = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
	http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
	http.StatusBadGateway: true, http.StatusGatewayTimeout: true,
}

const fuzzQueryID = "00f1e2d3c4b5a697"

var (
	fuzzOnce   sync.Once
	fuzzServer *Server
	fuzzH      http.Handler
)

// fuzzTarget is the server every fuzz input of a process is posted to. The
// short QueryTimeout bounds what one input may cost; the body limit keeps
// 413 reachable.
func fuzzTarget() (*Server, http.Handler) {
	fuzzOnce.Do(func() {
		fuzzServer = New(Config{
			Scale: 0.05, Seed: 42, QueryTimeout: 500 * time.Millisecond, MaxBodyBytes: 4 << 10,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		fuzzH = fuzzServer.Handler()
	})
	return fuzzServer, fuzzH
}

func checkBody(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	s, h := fuzzTarget()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Query-ID", fuzzQueryID)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if n := s.panics.Value(); n != 0 {
		t.Fatalf("%d handler panics; last input %q: %s", n, body, rr.Body)
	}
	if !documentedStatus[rr.Code] {
		t.Fatalf("status %d is outside the documented map for %q: %s", rr.Code, body, rr.Body)
	}
	var resp struct {
		QueryID string `json:"query_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d body is not JSON for %q: %v: %s", rr.Code, body, err, rr.Body)
	}
	// A 429 is decided before admission, which is where a query gets its ID.
	if rr.Code != http.StatusTooManyRequests && resp.QueryID != fuzzQueryID {
		t.Fatalf("status %d body carries query_id %q, sent %q, for %q", rr.Code, resp.QueryID, fuzzQueryID, body)
	}
	return rr
}

// fuzzSeeds adds each statement as a request body, plus the malformed
// bodies both routes share.
func fuzzSeeds(f *testing.F, extra string, sqls ...string) {
	for _, sql := range sqls {
		body, err := json.Marshal(map[string]string{"sql": sql})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add([]byte(strings.TrimSuffix(string(body), "}") + "," + extra + "}"))
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"sql": 7}`))
	f.Add([]byte(`{"sql": "` + strings.Repeat("x", 5000) + `"}`))
}

// The extended shapes: an OR-group, two actions, and a relation.
const (
	fuzzORGroup = `SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE (act='blowing_leaves' OR act='washing_dishes') AND obj.include('person')`
	fuzzMulti   = `SELECT MERGE(clipID) AS s FROM (PROCESS q5 PRODUCE clipID) WHERE act='volleyball' AND act='blowing_leaves'`
	fuzzRel     = `SELECT MERGE(clipID) AS s FROM (PROCESS q5 PRODUCE clipID) WHERE (act='volleyball' OR act='blowing_leaves') AND rel.near('person', 'tree')`
	fuzzRanked  = `SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS titanic PRODUCE clipID) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT 3`
)

func FuzzQueryBody(f *testing.F) {
	f.Add([]byte(cheapQuery))
	f.Add([]byte(objectQuery))
	fuzzSeeds(f, `"algo": "svaq", "k": 5, "budget_ms": 2000`,
		`SELECT MERGE(c) FROM (PROCESS nope PRODUCE c) WHERE act='a'`,
		`SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE obj.include('x')`,
		fuzzORGroup, fuzzMulti, fuzzRel, fuzzRanked,
	)
	f.Add([]byte(`{"sql": "SELECT MERGE(c) FROM (PROCESS q2 PRODUCE c) WHERE act='blowing_leaves'", "algo": "rvaq"}`))
	// A budget too large for a time.Duration, and one too small for a
	// nanosecond.
	f.Add([]byte(strings.TrimSuffix(cheapQuery, "}") + `, "budget_ms": 1e13}`))
	f.Add([]byte(strings.TrimSuffix(cheapQuery, "}") + `, "budget_ms": 1e-7}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if rr := checkBody(t, "/query", body); rr.Code == http.StatusOK {
			roundTrips[QueryResponse](t, rr.Body.Bytes())
			checkBudgetHonoured(t, body, rr.Body.Bytes())
		}
	})
}

// checkBudgetHonoured requires an online 200 to a positive budget_ms to
// report that budget: a budget the server accepts is never dropped.
func checkBudgetHonoured(t *testing.T, body, resp []byte) {
	t.Helper()
	var req QueryRequest
	var qr QueryResponse
	if json.Unmarshal(body, &req) != nil || req.BudgetMS <= 0 || json.Unmarshal(resp, &qr) != nil {
		return
	}
	if qr.Mode != "SVAQ" && qr.Mode != "SVAQD" {
		return // a ranked statement spends no inference at query time
	}
	if qr.Plan == nil || qr.Plan.Budget == nil {
		t.Fatalf("online 200 to budget_ms %g reports no budget: %s", req.BudgetMS, resp)
	}
}

func FuzzBatchBody(f *testing.F) {
	fuzzSeeds(f, `"algo": "svaq", "workers": 2`,
		strings.Join(strings.Fields(batchSQL), " "),
		`SELECT MERGE(clipID) AS s FROM (PROCESS coffee_and_cigarettes PRODUCE clipID) WHERE act='drinking_coffee' AND obj.include('cup')`,
		`SELECT MERGE(clipID) AS s FROM (PROCESS nope PRODUCE clipID) WHERE act='blowing_leaves'`,
		fuzzORGroup, fuzzMulti, fuzzRel, fuzzRanked,
	)
	f.Fuzz(func(t *testing.T, body []byte) { checkBody(t, "/query/batch", body) })
}
