package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	ctsOnce sync.Once
	cts     *httptest.Server
)

// cascadeServer is a shared server running the tiered detector cascades
// with a small default inference budget left unset (requests opt in via
// budget_ms).
func cascadeServer(t *testing.T) *httptest.Server {
	t.Helper()
	ctsOnce.Do(func() {
		cts = httptest.NewServer(New(Config{Scale: 0.05, Seed: 42, Cascade: true}).Handler())
	})
	return cts
}

const tierQuerySQL = `
SELECT MERGE(clipID) AS s
FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='blowing_leaves' AND obj.include('car')`

// TestLegacyPlanBlockUnchangedWithoutCascade is the surface regression the
// satellite demands: a single-tier server's /query plan block must not grow
// any tier or budget keys — byte-level JSON compatibility for existing
// consumers.
func TestLegacyPlanBlockUnchangedWithoutCascade(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: tierQuerySQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	var planObj map[string]json.RawMessage
	if err := json.Unmarshal(raw["plan"], &planObj); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tiered", "budget"} {
		if _, ok := planObj[key]; ok {
			t.Errorf("single-tier plan block leaks %q key", key)
		}
	}
	var nodes []map[string]json.RawMessage
	if err := json.Unmarshal(planObj["nodes"], &nodes); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		for _, key := range []string{"tier", "tiers", "escalation_rate"} {
			if _, ok := n[key]; ok {
				t.Errorf("single-tier node leaks %q key: %s", key, n["name"])
			}
		}
	}
}

// TestCascadeQueryReportsTiers: a cascade-configured server reports the
// tier decision, per-tier escalation model, and the tier metric families.
func TestCascadeQueryReportsTiers(t *testing.T) {
	srv := cascadeServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: tierQuerySQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan == nil || !qr.Plan.Tiered {
		t.Fatalf("cascade plan not tiered: %+v", qr.Plan)
	}
	for _, n := range qr.Plan.Nodes {
		if n.Tier == "" || len(n.Tiers) != 2 {
			t.Fatalf("node %s missing tier model: %+v", n.Name, n)
		}
		if n.Tiers[0].Units == 0 {
			t.Errorf("node %s: entry tier observed no units", n.Name)
		}
		if n.Tiers[0].UnitCostMS >= n.Tiers[1].UnitCostMS {
			t.Errorf("node %s: tiers not cheapest-first", n.Name)
		}
	}
	if qr.Plan.Budget != nil {
		t.Error("unbudgeted query must omit the budget block")
	}

	text := metricsText(t, srv)
	for _, family := range []string{
		"svqact_plan_tier_queries_total",
		"svqact_plan_tier_escalations_total",
		"svqact_detect_tier_units_total",
		"svqact_detect_tier_decisions_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metric family %s missing from /metrics", family)
		}
	}
	// The per-tier detect counters must carry tier labels for both tiers.
	for _, label := range []string{`tier="distilled-rcnn"`, `tier="maskrcnn"`} {
		if !strings.Contains(text, label) {
			t.Errorf("detect tier label %s missing from /metrics", label)
		}
	}
}

// TestBudgetedQueryDegrades: budget_ms on the request caps the simulated
// inference spend; exhaustion degrades (clips skipped and flagged, budget
// block honest, HTTP 200) instead of erroring, and the budget metric
// families record it.
func TestBudgetedQueryDegrades(t *testing.T) {
	srv := cascadeServer(t)
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: tierQuerySQL, BudgetMS: 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget exhaustion must degrade, got status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	b := qr.Plan.Budget
	if b == nil {
		t.Fatalf("budgeted query reports no budget block: %+v", qr.Plan)
	}
	if b.LimitMS != 200 || !b.Exhausted || b.SkippedClips == 0 {
		t.Errorf("budget block %+v: want limit 200, exhausted, skipped clips", b)
	}
	if b.SpentMS < b.LimitMS {
		t.Errorf("spent %vms below limit %vms yet exhausted", b.SpentMS, b.LimitMS)
	}
	if qr.FlaggedClips == 0 {
		t.Error("budget-skipped clips must surface in flagged_clips")
	}

	text := metricsText(t, srv)
	for _, want := range []string{
		"svqact_plan_tier_budget_skipped_clips_total",
		"svqact_plan_tier_budget_exhausted_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("budget metric %s missing from /metrics", want)
		}
	}
}

// TestBudgetedOrGroupDegrades: an OR-group runs through the same clip loop as
// a basic conjunction, so budget_ms binds it too and its plan feeds the plan
// metric families.
func TestBudgetedOrGroupDegrades(t *testing.T) {
	srv := httptest.NewServer(New(Config{Scale: 0.05, Seed: 42, Cascade: true}).Handler())
	defer srv.Close()
	const orGroup = `
SELECT MERGE(clipID) AS s
FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE (act='blowing_leaves' OR act='mowing_lawn') AND obj.include('car')`
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: orGroup, BudgetMS: 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget exhaustion must degrade, got status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Extended || qr.Plan == nil || len(qr.Plan.Nodes) != 3 {
		t.Fatalf("an OR-group answer must carry its three-atom plan: extended=%v plan=%+v", qr.Extended, qr.Plan)
	}
	b := qr.Plan.Budget
	if b == nil || b.LimitMS != 200 || !b.Exhausted || b.SkippedClips == 0 {
		t.Fatalf("budget block %+v: want limit 200, exhausted, skipped clips", b)
	}
	if qr.FlaggedClips == 0 {
		t.Error("budget-skipped clips must surface in flagged_clips")
	}
	foundOrder := false
	for _, sp := range qr.Trace.Spans {
		foundOrder = foundOrder || sp.Name == "plan.order"
	}
	if !foundOrder {
		t.Error("OR-group trace lacks the plan.order span")
	}

	text := metricsText(t, srv)
	if v := metricValue(t, text, "svqact_plan_tier_budget_skipped_clips_total"); v != float64(b.SkippedClips) {
		t.Errorf("budget skipped-clips counter = %v, want %d", v, b.SkippedClips)
	}
	for _, series := range []string{"svqact_plan_tier_budget_exhausted_total", "svqact_plan_queries_total", "svqact_plan_tier_queries_total"} {
		if v := metricValue(t, text, series); v != 1 {
			t.Errorf("%s = %v after one OR-group query, want 1", series, v)
		}
	}
}

// TestCascadeResultsMatchSingleTier: the recall-complete cascade server
// returns exactly the sequences the plain server does on the same source —
// the end-to-end identity the engine-level invariance tests promise.
func TestCascadeResultsMatchSingleTier(t *testing.T) {
	plain := testServer(t)
	casc := cascadeServer(t)
	_, pbody := post(t, plain.URL+"/query", QueryRequest{SQL: tierQuerySQL})
	_, cbody := post(t, casc.URL+"/query", QueryRequest{SQL: tierQuerySQL})
	var pr, cr QueryResponse
	if err := json.Unmarshal(pbody, &pr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cbody, &cr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Sequences) != len(cr.Sequences) {
		t.Fatalf("cascade returned %d sequences, single-tier %d", len(cr.Sequences), len(pr.Sequences))
	}
	for i := range pr.Sequences {
		if pr.Sequences[i] != cr.Sequences[i] {
			t.Errorf("sequence %d differs: %+v vs %+v", i, pr.Sequences[i], cr.Sequences[i])
		}
	}
}

// TestServerInferenceBudgetDefault: a server-level InferenceBudget applies
// to every query that does not override it.
func TestServerInferenceBudgetDefault(t *testing.T) {
	srv := httptest.NewServer(New(Config{
		Scale: 0.05, Seed: 42, Cascade: true, InferenceBudget: 200 * time.Millisecond,
	}).Handler())
	defer srv.Close()
	resp, body := post(t, srv.URL+"/query", QueryRequest{SQL: tierQuerySQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan.Budget == nil || !qr.Plan.Budget.Exhausted {
		t.Errorf("server default budget not applied: %+v", qr.Plan.Budget)
	}
}

func metricsText(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBudgetBounds: budget_ms takes a positive value from one nanosecond to
// the largest whole millisecond a time.Duration holds; outside that range it
// is a 400 naming the field and its range, never a 500 or an unlimited run.
func TestBudgetBounds(t *testing.T) {
	h := New(Config{Scale: 0.05, Seed: 42}).Handler()
	for _, tc := range []struct {
		budget string
		status int
	}{
		{"0", http.StatusOK},
		{"1e-6", http.StatusOK},
		{"9223372036854", http.StatusOK},
		{"1e-7", http.StatusBadRequest},
		{"9223372036855", http.StatusBadRequest},
		{"1e13", http.StatusBadRequest},
	} {
		rr := postQuery(h, strings.TrimSuffix(cheapQuery, "}")+`, "budget_ms": `+tc.budget+`}`)
		if rr.Code != tc.status {
			t.Fatalf("budget_ms %s: status %d, want %d: %s", tc.budget, rr.Code, tc.status, rr.Body)
		}
		if tc.status == http.StatusBadRequest {
			var eb errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "budget_ms must be in [1e-06, 9223372036854]") {
				t.Errorf("budget_ms %s: error body %s, want one naming budget_ms and its range", tc.budget, rr.Body)
			}
		}
	}
}
