package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

var (
	tsOnce sync.Once
	ts     *httptest.Server
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tsOnce.Do(func() {
		ts = httptest.NewServer(New(Config{Scale: 0.05, Seed: 42}).Handler())
	})
	return ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSources(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/sources")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Sources []string `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"q1": false, "titanic": false}
	for _, s := range body.Sources {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("source %s missing from %v", name, body.Sources)
		}
	}
	// Method check.
	resp2, _ := post(t, srv.URL+"/sources", map[string]string{})
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /sources status = %d", resp2.StatusCode)
	}
}

func TestOnlineQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s
FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='blowing_leaves' AND obj.include('car')`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Mode != "SVAQD" || qr.Source != "q2" || qr.NumClips == 0 {
		t.Errorf("response = %+v", qr)
	}
	for _, s := range qr.Sequences {
		if s.EndClip < s.StartClip || s.EndFrame < s.StartFrame {
			t.Errorf("malformed sequence %+v", s)
		}
	}
}

func TestOnlineQuerySVAQ(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE act='blowing_leaves'`, Algo: "svaq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Mode != "SVAQ" {
		t.Errorf("mode = %s", qr.Mode)
	}
}

func TestExtendedQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE (act='blowing_leaves' OR act='washing_dishes') AND obj.include('person')`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Extended {
		t.Errorf("extended flag not set: %+v", qr)
	}
}

func TestOfflineQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
WHERE act='kissing' AND obj.include('surfboard','boat')
ORDER BY RANK(act, obj) LIMIT 3`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Mode != "RVAQ" || qr.K != 3 {
		t.Errorf("response = %+v", qr)
	}
	if len(qr.Sequences) > 3 {
		t.Errorf("more than k sequences: %d", len(qr.Sequences))
	}
	for i := 1; i < len(qr.Sequences); i++ {
		if qr.Sequences[i].Score > qr.Sequences[i-1].Score {
			t.Errorf("scores not sorted: %+v", qr.Sequences)
		}
	}
	// The second identical query must hit the cached index and be fast.
	resp2, _ := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
WHERE act='kissing' AND obj.include('surfboard','boat')
ORDER BY RANK(act, obj) LIMIT 3`})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second query status = %d", resp2.StatusCode)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"parse error", `{"sql": "SELECT nothing"}`, http.StatusBadRequest},
		{"plan error", `{"sql": "SELECT MERGE(c) FROM (PROCESS v PRODUCE c) WHERE obj.include('x')"}`, http.StatusBadRequest},
		{"unknown source", `{"sql": "SELECT MERGE(c) FROM (PROCESS nope PRODUCE c) WHERE act='a'"}`, http.StatusNotFound},
		// The same mistake /query/batch answers 400 for.
		{"unknown algo", `{"sql": "SELECT MERGE(c) FROM (PROCESS q2 PRODUCE c) WHERE act='blowing_leaves'", "algo": "rvaq"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// GET /query is not allowed.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS q1 PRODUCE clipID)
WHERE act='washing_dishes' AND obj.include('faucet')`})
			if resp.StatusCode != http.StatusOK {
				errs <- string(body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent query failed: %s", e)
	}
}

func TestOfflineExtendedQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS titanic PRODUCE clipID)
WHERE (act='kissing' OR act='talking') AND obj.include('person')
ORDER BY RANK(act, obj) LIMIT 4`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Extended || qr.Mode != "RVAQ-CNF" {
		t.Errorf("response = %+v", qr)
	}
	if len(qr.Sequences) > 4 {
		t.Errorf("more than k sequences: %d", len(qr.Sequences))
	}
}

func TestQueryResponseCarriesPlan(t *testing.T) {
	srv := testServer(t)
	// Online: the streaming engine's adaptive predicate plan.
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s
FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='blowing_leaves' AND obj.include('car')`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan == nil {
		t.Fatal("online response carries no plan block")
	}
	if !qr.Plan.Adaptive || len(qr.Plan.Order) != 2 || len(qr.Plan.Nodes) != 2 {
		t.Errorf("plan = %+v", qr.Plan)
	}
	if len(qr.Plan.Order) != len(qr.Plan.Declared) {
		t.Errorf("order %v vs declared %v", qr.Plan.Order, qr.Plan.Declared)
	}

	// Offline: the rank layer's static table-ordering plan.
	resp2, body2 := post(t, srv.URL+"/query", QueryRequest{SQL: `
SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
WHERE act='kissing' AND obj.include('surfboard','boat')
ORDER BY RANK(act, obj) LIMIT 3`})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp2.StatusCode, body2)
	}
	var qr2 QueryResponse
	if err := json.Unmarshal(body2, &qr2); err != nil {
		t.Fatal(err)
	}
	if qr2.Plan == nil || len(qr2.Plan.Order) != 3 {
		t.Fatalf("offline plan = %+v", qr2.Plan)
	}

	// The planner instruments must be exposed on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"svqact_plan_queries_total",
		"svqact_plan_replans_total",
		"svqact_plan_skipped_evaluations_total",
		"svqact_plan_saved_cost_ms_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metric family %s missing from /metrics", family)
		}
	}
}
