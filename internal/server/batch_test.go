package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"svqact/internal/sqlq"
	"svqact/internal/stmt"
)

// q5 is the largest query set at the test server's 0.05 scale (2 component
// videos), so it exercises real fan-out.
const batchSQL = `
SELECT MERGE(clipID) AS s
FROM (PROCESS q5 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='volleyball' AND obj.include('person')`

// TestBatchQuery runs one online statement as a fleet over the q5 query set:
// every component video gets its own result entry, the aggregate partitions
// the fleet, and the trace carries one span per video plus the fleet root.
func TestBatchQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query/batch", BatchRequest{SQL: batchSQL, Workers: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Mode != "SVAQD" || br.Source != "q5" {
		t.Errorf("mode/source = %s/%s", br.Mode, br.Source)
	}
	if br.NumVideos < 2 {
		t.Fatalf("q5 fleet has %d videos, want several", br.NumVideos)
	}
	if len(br.Videos) != br.NumVideos {
		t.Fatalf("%d video entries for %d videos", len(br.Videos), br.NumVideos)
	}
	if br.OK != br.NumVideos {
		t.Errorf("aggregate %+v: want all %d videos ok", br, br.NumVideos)
	}
	if br.QueryID == "" || resp.Header.Get("X-Query-ID") != br.QueryID {
		t.Errorf("query id %q vs header %q", br.QueryID, resp.Header.Get("X-Query-ID"))
	}
	for i, v := range br.Videos {
		if v.ID == "" || v.Outcome != "ok" || v.NumClips == 0 {
			t.Errorf("video %d malformed: %+v", i, v)
		}
		if v.ProcessedClips != v.NumClips {
			t.Errorf("video %d: processed %d of %d clips on a clean run", i, v.ProcessedClips, v.NumClips)
		}
		for _, s := range v.Sequences {
			if s.EndClip < s.StartClip || s.EndFrame < s.StartFrame {
				t.Errorf("video %d: malformed sequence %+v", i, s)
			}
		}
	}
	if br.Trace == nil {
		t.Fatal("batch response carries no trace")
	}
	var perVideo, root int
	for _, sp := range br.Trace.Spans {
		switch {
		case strings.HasPrefix(sp.Name, "fleet.video:"):
			perVideo++
		case sp.Name == "fleet.run_all":
			root++
		}
	}
	if perVideo != br.NumVideos || root != 1 {
		t.Errorf("trace has %d per-video spans (want %d) and %d roots (want 1)", perVideo, br.NumVideos, root)
	}
}

// TestBatchQuerySVAQ selects the static engine.
func TestBatchQuerySVAQ(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query/batch", BatchRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE act='blowing_leaves'`, Algo: "svaq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Mode != "SVAQ" {
		t.Errorf("mode = %s", br.Mode)
	}
}

// TestBatchQuerySingleVideoSource: a movie source is a fleet of one.
func TestBatchQuerySingleVideoSource(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query/batch", BatchRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS coffee_and_cigarettes PRODUCE clipID)
WHERE act='drinking_coffee' AND obj.include('cup')`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.NumVideos != 1 || len(br.Videos) != 1 {
		t.Errorf("single-video source produced %d entries", br.NumVideos)
	}
}

// TestBatchQueryErrors covers the 4xx surface of /query/batch.
func TestBatchQueryErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name   string
		req    BatchRequest
		status int
	}{
		{"bad sql", BatchRequest{SQL: "SELECT nonsense"}, http.StatusBadRequest},
		{"offline statement", BatchRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS coffee_and_cigarettes PRODUCE clipID)
WHERE act='drinking_coffee' LIMIT 3`, Algo: ""}, http.StatusBadRequest},
		{"unknown algo", BatchRequest{SQL: batchSQL, Algo: "rvaq"}, http.StatusBadRequest},
		{"unknown source", BatchRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS nope PRODUCE clipID)
WHERE act='blowing_leaves'`}, http.StatusNotFound},
	}
	for _, c := range cases {
		resp, body := post(t, srv.URL+"/query/batch", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
		}
	}
	resp, _ := http.Get(srv.URL + "/query/batch")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBatchExtendedStatement: OR-groups and relations run as fleets too, and
// every entry answers what RunCNF answers on that component video alone.
func TestBatchExtendedStatement(t *testing.T) {
	s := New(Config{Scale: 0.05, Seed: 42})
	h := s.Handler()
	eng, err := stmt.NewEngine("", s.models, s.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{`
SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE (act='blowing_leaves' OR act='washing_dishes')`, `
SELECT MERGE(clipID) AS s FROM (PROCESS q5 PRODUCE clipID)
WHERE (act='volleyball' OR act='blowing_leaves') AND rel.near('person', 'tree')`,
	} {
		rr := postTo(h, "/query/batch", BatchRequest{SQL: sql, Workers: 2})
		if rr.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rr.Code, rr.Body)
		}
		var br BatchResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &br); err != nil {
			t.Fatal(err)
		}
		st, err := sqlq.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := st.Plan()
		if err != nil {
			t.Fatal(err)
		}
		vids, err := s.videos(plan.Source)
		if err != nil {
			t.Fatal(err)
		}
		if br.OK != len(vids) || len(br.Videos) != len(vids) || br.Plan == nil || br.TotalSequences == 0 {
			t.Fatalf("%s: aggregate %+v for %d videos", plan.Source, br, len(vids))
		}
		for i, v := range vids {
			res, err := eng.RunCNF(context.Background(), v, plan.CNF)
			if err != nil {
				t.Fatal(err)
			}
			want := stmt.ClipSequences(res.Sequences, v.Geometry())
			if got := br.Videos[i]; got.ID != v.ID() || !reflect.DeepEqual(got.Sequences, want) {
				t.Errorf("%s entry %d (%s): sequences %v, RunCNF on %s alone %v", plan.Source, i, got.ID, got.Sequences, v.ID(), want)
			}
		}
	}
}

// TestBatchErrorsAreLoggedAndRetained: a batch that fails before its fleet
// starts is answered like a failed /query — one query log line with its
// status and outcome, and its trace retained under its query ID.
func TestBatchErrorsAreLoggedAndRetained(t *testing.T) {
	var logged strings.Builder
	s := New(Config{Scale: 0.05, Seed: 42, Logger: slog.New(slog.NewJSONHandler(&logged, nil))})
	h := s.Handler()
	rr := postTo(h, "/query/batch", BatchRequest{SQL: `
SELECT MERGE(clipID) AS s FROM (PROCESS nope PRODUCE clipID)
WHERE act='blowing_leaves'`})
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", rr.Code, rr.Body)
	}
	qid := rr.Header().Get("X-Query-ID")
	var lines int
	for _, line := range strings.Split(strings.TrimSpace(logged.String()), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			QueryID string `json:"query_id"`
			Status  int    `json:"status"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Msg != "query" {
			continue
		}
		lines++
		if rec.QueryID != qid || rec.Status != http.StatusNotFound || rec.Outcome != "error" {
			t.Errorf("query log line %s: want query_id %s, status 404, outcome error", line, qid)
		}
	}
	if lines != 1 {
		t.Errorf("%d query log lines, want 1:\n%s", lines, logged.String())
	}
	idx := httptest.NewRecorder()
	h.ServeHTTP(idx, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var traces struct {
		Traces []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(idx.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces.Traces {
		if tr.ID == qid {
			return
		}
	}
	t.Errorf("/debug/traces does not list the failed batch %s: %s", qid, idx.Body)
}

// postTo POSTs body as JSON to path on h.
func postTo(h http.Handler, path string, body any) *httptest.ResponseRecorder {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	return rr
}

// TestBatchFleetMetrics checks /metrics carries the fleet instruments after
// a batch has run.
func TestBatchFleetMetrics(t *testing.T) {
	srv := testServer(t)
	if _, body := post(t, srv.URL+"/query/batch", BatchRequest{SQL: batchSQL}); len(body) == 0 {
		t.Fatal("empty batch response")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"svqact_fleet_batches_total",
		"svqact_fleet_batch_duration_seconds",
		`svqact_fleet_videos_total{outcome="ok"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
