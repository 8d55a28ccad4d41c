// Smoke is the end-to-end check CI runs after the unit suites
// (scripts/check.sh). It exercises two surfaces:
//
// Durability: cmd/ingest builds a repository, gets SIGKILLed mid-run, is
// re-run to completion (resuming from its checkpoint), and the result must
// pass `svq fsck`; a deliberately bit-flipped table must then fail it.
//
// Observability: cmd/serve starts with fault injection and the
// freshly-ingested repository, a query runs over plain HTTP (no curl), and
// the whole surface is verified — X-Query-ID header, trace spans in the
// response, the structured JSON log line, a hot /repo/reload, and a
// /metrics scrape that must contain every required metric family, obey
// Prometheus naming conventions, and show the fault machinery's and the
// repository's counters moving.
//
//	go run ./scripts/smoke
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"svqact/internal/rank"
)

const query = `{"sql": "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car')"}`

// requiredFamilies must all appear on /metrics after one query.
var requiredFamilies = []string{
	"svqact_queries_inflight",
	"svqact_queries_waiting",
	"svqact_queries_served_total",
	"svqact_queries_rejected_total",
	"svqact_panics_total",
	"svqact_query_duration_seconds",
	"svqact_rank_sorted_accesses_total",
	"svqact_rank_random_accesses_total",
	"svqact_plan_queries_total",
	"svqact_plan_replans_total",
	"svqact_plan_skipped_evaluations_total",
	"svqact_plan_saved_cost_ms_total",
	"svqact_uptime_seconds",
	"svqact_detect_inferences_total",
	"svqact_detect_attempts_total",
	"svqact_detect_retries_total",
	"svqact_detect_faults_total",
	"svqact_detect_flagged_clips_total",
	"svqact_repo_generation",
	"svqact_repo_members",
	"svqact_repo_reloads_total",
	"svqact_repo_corruption_total",
	"svqact_repo_recoveries_total",
	"svqact_traces_seen_total",
	"svqact_traces_retained_total",
	"svqact_trace_store_size",
	"svqact_query_duration_seconds_p50",
	"svqact_query_duration_seconds_p95",
	"svqact_query_duration_seconds_p99",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: OK")
}

func run() error {
	dir, err := os.MkdirTemp("", "svqact-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bins := map[string]string{}
	for _, name := range []string{"serve", "ingest", "svq", "coordinator"} {
		bins[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("building cmd/%s: %v\n%s", name, err, out)
		}
	}

	repoDir := filepath.Join(dir, "repo")
	if err := durabilityPhase(bins, repoDir); err != nil {
		return fmt.Errorf("durability: %w", err)
	}

	cmd := exec.Command(bins["serve"],
		"-addr", "127.0.0.1:0", "-scale", "0.05",
		"-repo", repoDir,
		"-fault-transient", "0.1", "-fault-permanent", "0.005",
		"-detect-retries", "3", "-failure-budget", "0.9")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
		}
	}()

	// The server logs structured JSON; its listening line carries the
	// resolved ephemeral address, and later lines the per-query records.
	var mu sync.Mutex
	var logLines []map[string]any
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			mu.Lock()
			logLines = append(logLines, rec)
			mu.Unlock()
			if rec["msg"] == "svq-act query server listening" {
				if a, ok := rec["addr"].(string); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server never logged its listening address")
	}
	if err := waitHealthy(base); err != nil {
		return err
	}

	// Execute the fault-injected query and check the trace surface.
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(query))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query status %d: %s", resp.StatusCode, body)
	}
	qid := resp.Header.Get("X-Query-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(qid) {
		return fmt.Errorf("X-Query-ID = %q, want 16 hex chars", qid)
	}
	var qr struct {
		QueryID string `json:"query_id"`
		Plan    *struct {
			Adaptive bool     `json:"adaptive"`
			Order    []string `json:"order"`
			Declared []string `json:"declared"`
			Nodes    []struct {
				Name string `json:"name"`
			} `json:"nodes"`
		} `json:"plan"`
		Trace *struct {
			QueryID string `json:"query_id"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("query response not JSON: %v", err)
	}
	if qr.QueryID != qid || qr.Trace == nil || qr.Trace.QueryID != qid {
		return fmt.Errorf("query ID not stable across header/body/trace: header %q body %q", qid, qr.QueryID)
	}
	spans := map[string]bool{}
	for _, sp := range qr.Trace.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"engine.run", "plan.order", "predicate:car", "predicate:blowing_leaves"} {
		if !spans[want] {
			return fmt.Errorf("trace missing span %q (have %v)", want, qr.Trace.Spans)
		}
	}

	// The response must carry the predicate plan block: adaptive, with both
	// the chosen and declared orders over the query's two predicates.
	if qr.Plan == nil {
		return fmt.Errorf("query response carries no plan block: %s", body)
	}
	if !qr.Plan.Adaptive || len(qr.Plan.Order) != 2 || len(qr.Plan.Declared) != 2 || len(qr.Plan.Nodes) != 2 {
		return fmt.Errorf("malformed plan block: %+v", qr.Plan)
	}

	// Scrape and validate /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("metrics content type %q", ct)
	}
	if err := validateExposition(mbody); err != nil {
		return err
	}
	text := string(mbody)
	for _, fam := range requiredFamilies {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			return fmt.Errorf("metrics missing family %s", fam)
		}
	}
	for _, nonzero := range []string{
		`svqact_detect_retries_total{kind="action"}`,
		`svqact_detect_flagged_clips_total{kind="action"}`,
		`svqact_query_duration_seconds_count`,
	} {
		v, ok := seriesValue(text, nonzero)
		if !ok {
			return fmt.Errorf("metrics missing series %s", nonzero)
		}
		if v <= 0 {
			return fmt.Errorf("series %s = %v, want > 0 under fault injection", nonzero, v)
		}
	}

	// The repository must be serving a committed generation, and a hot
	// reload must succeed and show up on the counters.
	if v, ok := seriesValue(text, "svqact_repo_generation"); !ok || v <= 0 {
		return fmt.Errorf("svqact_repo_generation = %v, want > 0 with -repo", v)
	}
	rresp, err := http.Post(base+"/repo/reload", "application/json", nil)
	if err != nil {
		return err
	}
	rbody, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		return fmt.Errorf("/repo/reload status %d: %s", rresp.StatusCode, rbody)
	}
	mresp2, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody2, _ := io.ReadAll(mresp2.Body)
	mresp2.Body.Close()
	if v, ok := seriesValue(string(mbody2), `svqact_repo_reloads_total{outcome="ok"}`); !ok || v < 2 {
		return fmt.Errorf(`svqact_repo_reloads_total{outcome="ok"} = %v, want >= 2 (startup + hot reload)`, v)
	}

	// /healthz and /metrics must agree on the shared counters.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	var hz struct {
		Served float64 `json:"served"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		return err
	}
	hresp.Body.Close()
	if v, _ := seriesValue(text, "svqact_queries_served_total"); v != hz.Served {
		return fmt.Errorf("served disagrees: metrics %v, healthz %v", v, hz.Served)
	}

	// The query must have produced a structured log line.
	mu.Lock()
	found := false
	for _, rec := range logLines {
		if rec["msg"] == "query" && rec["query_id"] == qid {
			for _, key := range []string{"statement", "outcome", "degraded", "interrupted"} {
				if _, ok := rec[key]; !ok {
					mu.Unlock()
					return fmt.Errorf("query log line missing %q: %v", key, rec)
				}
			}
			found = true
			break
		}
	}
	mu.Unlock()
	if !found {
		return fmt.Errorf("no structured log line for query %s", qid)
	}

	if err := cascadePhase(bins); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}

	if err := clusterPhase(bins, dir, repoDir, base); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// cascadePhase proves the tiered-cascade serving surface end to end: a
// -cascade server answers a budget-capped query by degrading (clips
// skipped and flagged, budget block honest, HTTP 200), and /metrics shows
// the per-tier detector counters and the budget families moving.
func cascadePhase(bins map[string]string) error {
	cmd := exec.Command(bins["serve"], "-addr", "127.0.0.1:0", "-scale", "0.05", "-cascade")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
		}
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			if rec["msg"] == "svq-act query server listening" {
				if a, ok := rec["addr"].(string); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("cascade server never logged its listening address")
	}
	if err := waitHealthy(base); err != nil {
		return err
	}

	budgeted := `{"sql": "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car')", "budget_ms": 200}`
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(budgeted))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("budget-capped query must degrade, got status %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		FlaggedClips int `json:"flagged_clips"`
		Plan         *struct {
			Tiered bool `json:"tiered"`
			Budget *struct {
				LimitMS      float64 `json:"limit_ms"`
				SpentMS      float64 `json:"spent_ms"`
				SkippedClips int64   `json:"skipped_clips"`
				Exhausted    bool    `json:"exhausted"`
			} `json:"budget"`
			Nodes []struct {
				Name  string `json:"name"`
				Tier  string `json:"tier"`
				Tiers []struct {
					Name  string `json:"name"`
					Units int64  `json:"units"`
				} `json:"tiers"`
			} `json:"nodes"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("cascade query response not JSON: %v", err)
	}
	if qr.Plan == nil || !qr.Plan.Tiered {
		return fmt.Errorf("cascade plan block not tiered: %s", body)
	}
	b := qr.Plan.Budget
	if b == nil || !b.Exhausted || b.SkippedClips == 0 || b.LimitMS != 200 {
		return fmt.Errorf("budget block not honest under a 200ms cap: %s", body)
	}
	if int64(qr.FlaggedClips) < b.SkippedClips {
		return fmt.Errorf("flagged_clips %d below budget-skipped %d", qr.FlaggedClips, b.SkippedClips)
	}
	for _, n := range qr.Plan.Nodes {
		if n.Tier == "" || len(n.Tiers) != 2 {
			return fmt.Errorf("node %s missing tier model: %s", n.Name, body)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, nonzero := range []string{
		`svqact_detect_tier_units_total{kind="object",tier="distilled-rcnn"}`,
		`svqact_detect_tier_decisions_total{kind="object",outcome="decided",tier="distilled-rcnn"}`,
		`svqact_plan_tier_queries_total`,
		`svqact_plan_tier_budget_skipped_clips_total`,
		`svqact_plan_tier_budget_exhausted_total`,
	} {
		v, ok := seriesValue(text, nonzero)
		if !ok {
			return fmt.Errorf("metrics missing series %s", nonzero)
		}
		if v <= 0 {
			return fmt.Errorf("series %s = %v, want > 0 after a cascade query", nonzero, v)
		}
	}
	fmt.Println("smoke: cascade OK (budget-capped query degraded with tier metrics moving)")
	return nil
}

// durabilityPhase proves the crash-safety contract end to end with real
// processes: an ingest run is SIGKILLed as soon as its first generation
// commits, the re-run resumes and completes, the result passes `svq fsck`,
// and a bit-flipped table makes fsck fail.
func durabilityPhase(bins map[string]string, repoDir string) error {
	ingest := func() (string, error) {
		out, err := exec.Command(bins["ingest"],
			"-dataset", "movies", "-scale", "0.05", "-out", repoDir).CombinedOutput()
		return string(out), err
	}

	// First run: kill -9 as soon as the first unit is checkpointed. The
	// checkpoint is written (atomically) right after the member's generation
	// commits, so at that instant the repo holds exactly one finished video.
	first := exec.Command(bins["ingest"], "-dataset", "movies", "-scale", "0.05", "-out", repoDir)
	first.Stdout, first.Stderr = io.Discard, io.Discard
	if err := first.Start(); err != nil {
		return err
	}
	firstDone := make(chan error, 1)
	go func() { firstDone <- first.Wait() }()
	killed := false
	deadline := time.Now().Add(60 * time.Second)
poll:
	for time.Now().Before(deadline) {
		select {
		case <-firstDone:
			// Finished before we could kill it — the resume path then
			// degenerates to "skip everything", which is still valid.
			break poll
		default:
		}
		if _, err := os.Stat(filepath.Join(repoDir, ".ingest-checkpoint.json")); err == nil {
			_ = first.Process.Kill() // SIGKILL: no cleanup, no graceful shutdown
			<-firstDone
			killed = true
			break poll
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !killed {
		select {
		case <-firstDone:
		default:
			_ = first.Process.Kill()
			<-firstDone
			return fmt.Errorf("ingest neither committed a generation nor finished within 60s")
		}
	}

	// Second run must complete the repository from whatever survived.
	out, err := ingest()
	if err != nil {
		return fmt.Errorf("resumed ingest failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "now holds 4 videos") {
		return fmt.Errorf("resumed ingest did not complete the repository:\n%s", out)
	}
	if killed && !strings.Contains(out, "skipped") && !strings.Contains(out, "resuming") {
		return fmt.Errorf("resumed ingest after SIGKILL shows no resume/skip activity:\n%s", out)
	}

	// The recovered repository must pass fsck.
	if out, err := exec.Command(bins["svq"], "fsck", repoDir).CombinedOutput(); err != nil {
		return fmt.Errorf("fsck of recovered repository failed: %v\n%s", err, out)
	}

	// …and fsck must actually detect damage: flip one byte in the middle of
	// one member's table pack, which lands inside some table's section.
	var tbl string
	filepath.WalkDir(repoDir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Base(p) == "tables.pack" && tbl == "" {
			tbl = p
		}
		return nil
	})
	if tbl == "" {
		return fmt.Errorf("no table pack in %s", repoDir)
	}
	orig, err := os.ReadFile(tbl)
	if err != nil {
		return err
	}
	mut := append([]byte(nil), orig...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(tbl, mut, 0o644); err != nil {
		return err
	}
	if out, err := exec.Command(bins["svq"], "fsck", repoDir).CombinedOutput(); err == nil {
		return fmt.Errorf("fsck accepted a bit-flipped table pack:\n%s", out)
	}
	if err := os.WriteFile(tbl, orig, 0o644); err != nil {
		return err
	}
	fmt.Printf("smoke: durability OK (killed mid-ingest: %v)\n", killed)
	return nil
}

// rankedBatch is the /query/batch body the cluster phase replays: the
// titanic query of the movies workload (Table 2), at three depths.
const rankedBatch = `{"queries": [
  "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT 3",
  "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT 1",
  "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT 5"
]}`

// clusterSeq is the sequence shape shared by the coordinator's entries and
// the single-process server's ranked answers.
type clusterSeq struct {
	Video     string  `json:"video"`
	StartClip int     `json:"start_clip"`
	EndClip   int     `json:"end_clip"`
	Score     float64 `json:"score"`
}

type clusterBatchAnswer struct {
	QueryID string `json:"query_id"`
	Entries []struct {
		Sequences        []clusterSeq `json:"sequences"`
		Degraded         bool         `json:"degraded"`
		MixedGenerations bool         `json:"mixed_generations"`
		Error            string       `json:"error"`
	} `json:"entries"`
	Shards struct {
		OK       []string `json:"ok"`
		Degraded []string `json:"degraded"`
		Failed   []string `json:"failed"`
	} `json:"shards"`
	Degraded bool `json:"degraded"`
}

// startShard launches a cmd/serve shard replica and returns its process and
// resolved base URL (the listening line of its JSON log).
func startShard(bin, repoDir, shardName, addr string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, "-addr", addr, "-scale", "0.05",
		"-repo", repoDir, "-shard-name", shardName)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			if rec["msg"] == "svq-act query server listening" {
				if a, ok := rec["addr"].(string); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		return cmd, "http://" + a, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		return nil, "", fmt.Errorf("shard %s never logged its listening address", shardName)
	}
}

func postBatch(base string) (*clusterBatchAnswer, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/query/batch", strings.NewReader(rankedBatch))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Query-ID", "feedc0defeedc0de")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch status %d (want 200 even when degraded): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Query-ID"); got != "feedc0defeedc0de" {
		return nil, fmt.Errorf("coordinator X-Query-ID = %q, want the inbound id adopted", got)
	}
	var ans clusterBatchAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return nil, fmt.Errorf("batch response not JSON: %v\n%s", err, body)
	}
	return &ans, nil
}

// clusterPhase proves the sharded serving stack with real processes: the
// repository is split into two shard repositories (`svq split`), served by
// three cmd/serve replicas (shard s1 has two), fronted by cmd/coordinator.
// A ranked batch must match the single-process server byte-for-score; then
// s1's primary is killed (degraded partition, same answers via failover),
// then its last replica (failed partition, partial answers), then both are
// restarted (health probes close the breakers and the cluster recovers).
func clusterPhase(bins map[string]string, dir, repoDir, monoBase string) error {
	shardsDir := filepath.Join(dir, "shards")
	if out, err := exec.Command(bins["svq"], "split", "-n", "2", "-out", shardsDir, repoDir).CombinedOutput(); err != nil {
		return fmt.Errorf("svq split: %v\n%s", err, out)
	}
	s0dir := filepath.Join(shardsDir, "shard0")
	s1dir := filepath.Join(shardsDir, "shard1")

	// Single-process ground truth: the same three statements against the
	// unsharded repository.
	var want [][]clusterSeq
	var batch struct {
		Queries []string `json:"queries"`
	}
	if err := json.Unmarshal([]byte(rankedBatch), &batch); err != nil {
		return err
	}
	for _, sql := range batch.Queries {
		raw, _ := json.Marshal(map[string]string{"sql": sql})
		resp, err := http.Post(monoBase+"/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("monolith query status %d: %s", resp.StatusCode, body)
		}
		var qr struct {
			Sequences []clusterSeq `json:"sequences"`
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			return err
		}
		if len(qr.Sequences) == 0 {
			return fmt.Errorf("monolith ranked query returned no sequences: %s", body)
		}
		want = append(want, qr.Sequences)
	}

	procs := map[string]*exec.Cmd{}
	kill := func(name string) {
		if cmd := procs[name]; cmd != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			procs[name] = nil
		}
	}
	defer func() {
		for name := range procs {
			kill(name)
		}
	}()
	urls := map[string]string{}
	for _, rep := range []struct{ name, dir, shard string }{
		{"s0-r0", s0dir, "s0"}, {"s1-r0", s1dir, "s1"}, {"s1-r1", s1dir, "s1"},
	} {
		cmd, base, err := startShard(bins["serve"], rep.dir, rep.shard, "127.0.0.1:0")
		if err != nil {
			return err
		}
		procs[rep.name] = cmd
		urls[rep.name] = base
	}

	coord, coordBase, coordLogs, err := startCoordinator(bins["coordinator"],
		"-shard", "s0="+urls["s0-r0"],
		"-shard", "s1="+urls["s1-r0"]+","+urls["s1-r1"])
	if err != nil {
		return err
	}
	defer func() {
		_ = coord.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = coord.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = coord.Process.Kill()
		}
	}()
	if err := waitHealthy(coordBase); err != nil {
		return err
	}

	// Healthy cluster: every entry matches the single-process answers and
	// both shards are ok.
	ans, err := postBatch(coordBase)
	if err != nil {
		return err
	}
	if ans.Degraded || len(ans.Shards.OK) != 2 {
		return fmt.Errorf("healthy batch reports partition %+v", ans.Shards)
	}
	if err := matchEntries(ans, want); err != nil {
		return err
	}

	// Kill s1's primary: answers must not change, but the partition must
	// name s1 degraded (served by its failover replica).
	kill("s1-r0")
	ans, err = postBatch(coordBase)
	if err != nil {
		return err
	}
	if !ans.Degraded || fmt.Sprint(ans.Shards.Degraded) != "[s1]" {
		return fmt.Errorf("after killing s1 primary: degraded=%v partition %+v, want s1 degraded", ans.Degraded, ans.Shards)
	}
	if err := matchEntries(ans, want); err != nil {
		return fmt.Errorf("failover changed answers: %w", err)
	}

	// With s1 degraded, prove the distributed-tracing surface end to end.
	if err := tracingPhase(bins, coordBase, batch.Queries[0], coordLogs); err != nil {
		return fmt.Errorf("tracing: %w", err)
	}

	// Kill s1's last replica: the batch still answers 200 with partial
	// results and the failed partition names the lost shard.
	kill("s1-r1")
	ans, err = postBatch(coordBase)
	if err != nil {
		return err
	}
	if !ans.Degraded || fmt.Sprint(ans.Shards.Failed) != "[s1]" {
		return fmt.Errorf("after losing s1: degraded=%v partition %+v, want s1 failed", ans.Degraded, ans.Shards)
	}
	for i, e := range ans.Entries {
		if !e.Degraded || !strings.Contains(e.Error, "s1") {
			return fmt.Errorf("entry %d of a degraded batch should carry an error naming s1: %+v", i, e)
		}
	}

	// Restart both replicas on their old addresses: the health checker
	// closes the breakers and the cluster recovers to a clean partition.
	for _, name := range []string{"s1-r0", "s1-r1"} {
		cmd, _, err := startShard(bins["serve"], s1dir, "s1", strings.TrimPrefix(urls[name], "http://"))
		if err != nil {
			return fmt.Errorf("restarting %s: %w", name, err)
		}
		procs[name] = cmd
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ans, err = postBatch(coordBase)
		if err != nil {
			return err
		}
		if !ans.Degraded && len(ans.Shards.OK) == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster never recovered after replica restart: partition %+v", ans.Shards)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err := matchEntries(ans, want); err != nil {
		return fmt.Errorf("recovered cluster disagrees with the monolith: %w", err)
	}

	// Overload protection: a burst beyond the admission limits must be
	// shed with 429 + Retry-After before it reaches the shards.
	if err := overloadPhase(coordBase, batch.Queries[0]); err != nil {
		return fmt.Errorf("overload: %w", err)
	}

	// Rolling generation swap: commit a new generation to every shard
	// repository, halt a rollout on a killed replica, verify the old
	// generation keeps answering (flagged mixed), repair, re-run to done.
	if err := rolloutPhase(bins, s0dir, s1dir, coordBase, urls, procs, kill, want); err != nil {
		return fmt.Errorf("rollout: %w", err)
	}

	// The coordinator's metrics surface must expose the cluster families,
	// with the failover counter moving.
	mresp, err := http.Get(coordBase + "/metrics")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := validateExposition(mbody); err != nil {
		return fmt.Errorf("coordinator metrics: %w", err)
	}
	text := string(mbody)
	for _, fam := range []string{
		"svqact_cluster_queries_total",
		"svqact_cluster_shard_requests_total",
		"svqact_cluster_failovers_total",
		"svqact_cluster_health_probes_total",
		"svqact_cluster_shards",
		"svqact_cluster_replicas",
		"svqact_cluster_scatter_seconds",
		"svqact_traces_seen_total",
		"svqact_traces_retained_total",
		"svqact_trace_store_size",
		"svqact_cluster_scatter_seconds_p50",
		"svqact_cluster_scatter_seconds_p95",
		"svqact_cluster_scatter_seconds_p99",
		"svqact_cluster_admission_waiting",
		"svqact_cluster_admission_inflight",
		"svqact_cluster_admission_admitted_total",
		"svqact_cluster_admission_rejected_total",
		"svqact_cluster_admission_wait_seconds",
		"svqact_cluster_admission_backpressure_total",
		"svqact_cluster_mixed_generation_answers_total",
		"svqact_cluster_rollouts_total",
		"svqact_cluster_rollout_running",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			return fmt.Errorf("coordinator metrics missing family %s", fam)
		}
	}
	if v, ok := seriesValue(text, `svqact_cluster_failovers_total{shard="s1"}`); !ok || v <= 0 {
		return fmt.Errorf(`svqact_cluster_failovers_total{shard="s1"} = %v, want > 0 after the kill`, v)
	}
	for series, why := range map[string]string{
		`svqact_cluster_rollouts_total{outcome="completed"}`:           "the repaired rollout completed",
		`svqact_cluster_rollouts_total{outcome="failed"}`:              "the first rollout halted on the killed replica",
		`svqact_cluster_mixed_generation_answers_total`:                "the halted rollout left mixed generations",
		`svqact_cluster_admission_rejected_total{reason="queue_full"}`: "the overload burst was shed",
	} {
		if v, ok := seriesValue(text, series); !ok || v <= 0 {
			return fmt.Errorf("%s = %v, want > 0 (%s)", series, v, why)
		}
	}
	fmt.Println("smoke: cluster OK (failover, shard loss, recovery, overload shed, rolling swap)")
	return nil
}

// overloadPhase fires a burst of concurrent queries far beyond the
// coordinator's admission limits (-admit-concurrent 2 -admit-queue 2) and
// requires load shedding: at least one 429 with a Retry-After hint, while
// the rest still answer 200. The admission block on /healthz must agree.
func overloadPhase(coordBase, sql string) error {
	raw, _ := json.Marshal(map[string]string{"sql": sql})
	const burst = 24
	codes := make(chan int, burst)
	retryAfter := make(chan string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(coordBase+"/query", "application/json", bytes.NewReader(raw))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)
	var ok200, shed, other int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed++
		default:
			other++
		}
	}
	if other > 0 {
		return fmt.Errorf("burst of %d: %d answers were neither 200 nor 429", burst, other)
	}
	if shed == 0 {
		return fmt.Errorf("burst of %d against capacity 2 + queue 2 shed nothing", burst)
	}
	if ok200 == 0 {
		return fmt.Errorf("burst of %d: everything was shed, nothing served", burst)
	}
	for ra := range retryAfter {
		if ra == "" || ra == "0" {
			return fmt.Errorf("a 429 carried Retry-After %q, want a positive seconds value", ra)
		}
	}

	hresp, err := http.Get(coordBase + "/healthz")
	if err != nil {
		return err
	}
	var hz struct {
		Admission struct {
			Capacity int `json:"capacity"`
			Admitted int `json:"admitted"`
			Rejected int `json:"rejected"`
		} `json:"admission"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil {
		return err
	}
	if hz.Admission.Capacity != 2 || hz.Admission.Admitted <= 0 || hz.Admission.Rejected < shed {
		return fmt.Errorf("healthz admission block %+v disagrees with the burst (shed %d)", hz.Admission, shed)
	}
	fmt.Printf("smoke: overload OK (%d served, %d shed with Retry-After)\n", ok200, shed)
	return nil
}

// bumpGenerations commits a fresh generation to every member of a shard
// repository — same data, new generation number — the on-disk state a real
// re-ingest would leave for a rollout to pick up.
func bumpGenerations(shardDir string) error {
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		member := filepath.Join(shardDir, e.Name())
		if _, err := os.Stat(filepath.Join(member, "CURRENT")); err != nil {
			continue
		}
		ix, err := rank.Load(member)
		if err != nil {
			return fmt.Errorf("loading %s: %w", member, err)
		}
		if err := rank.Save(member, ix); err != nil {
			return fmt.Errorf("re-saving %s: %w", member, err)
		}
	}
	return nil
}

// replicaGeneration reads one replica's served generation off GET
// /repo/status.
func replicaGeneration(base string) (int, error) {
	resp, err := http.Get(base + "/repo/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rh struct {
		Generation int `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rh); err != nil {
		return 0, err
	}
	return rh.Generation, nil
}

// rolloutPhase proves the health-gated rolling generation swap with real
// processes. Generation 2 is committed to both shard repositories, s1's
// primary is killed, and `svq rollout` must halt there (exit 1) with s0
// already swapped — the cluster keeps answering correctly, flagged as
// mixed-generation, with s1's survivor still on the old generation. After
// restarting the dead replica a second `svq rollout` must run to
// completion and converge every replica on generation 2.
func rolloutPhase(bins map[string]string, s0dir, s1dir, coordBase string,
	urls map[string]string, procs map[string]*exec.Cmd, kill func(string), want [][]clusterSeq) error {
	for _, dir := range []string{s0dir, s1dir} {
		if err := bumpGenerations(dir); err != nil {
			return err
		}
	}
	kill("s1-r0")

	canary := "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT 1"
	rollout := func() (string, int, error) {
		out, err := exec.Command(bins["svq"], "rollout",
			"-server", coordBase, "-canary", canary,
			"-drain-wait", "50ms", "-interval", "50ms", "-timeout", "60s").CombinedOutput()
		if err == nil {
			return string(out), 0, nil
		}
		var xerr *exec.ExitError
		if errors.As(err, &xerr) {
			return string(out), xerr.ExitCode(), nil
		}
		return string(out), 0, err
	}

	// First walk: s0 swaps to generation 2, then the dead s1-r0 halts the
	// rollout before s1's survivor is ever touched.
	out, code, err := rollout()
	if err != nil {
		return err
	}
	if code != 1 || !strings.Contains(out, "failed") || !strings.Contains(out, "s1-r0") {
		return fmt.Errorf("rollout against a dead replica: exit %d, want 1 with a failure naming s1-r0\n%s", code, out)
	}
	if g, err := replicaGeneration(urls["s0-r0"]); err != nil || g != 2 {
		return fmt.Errorf("s0-r0 generation after the halted rollout = %d (%v), want 2", g, err)
	}
	if g, err := replicaGeneration(urls["s1-r1"]); err != nil || g != 1 {
		return fmt.Errorf("s1-r1 generation after the halt = %d (%v), want 1 (old generation keeps serving)", g, err)
	}

	// Mid-halt the cluster is mixed (s0 on 2, s1 surviving on 1): answers
	// must still match the ground truth, flagged mixed and degraded.
	ans, err := postBatch(coordBase)
	if err != nil {
		return err
	}
	if err := matchEntries(ans, want); err != nil {
		return fmt.Errorf("halted rollout changed answers: %w", err)
	}
	if !ans.Degraded {
		return fmt.Errorf("mid-halt batch not degraded: partition %+v", ans.Shards)
	}
	for i, e := range ans.Entries {
		if !e.MixedGenerations {
			return fmt.Errorf("mid-halt entry %d not flagged mixed_generations", i)
		}
	}

	// Repair: restart the dead replica on its old address and wait for the
	// health checker to close its breaker again.
	cmd, _, err := startShard(bins["serve"], s1dir, "s1", strings.TrimPrefix(urls["s1-r0"], "http://"))
	if err != nil {
		return fmt.Errorf("restarting s1-r0: %w", err)
	}
	procs["s1-r0"] = cmd
	deadline := time.Now().Add(30 * time.Second)
	for {
		sresp, err := http.Get(coordBase + "/shards")
		if err != nil {
			return err
		}
		var shards struct {
			Shards []struct {
				Replicas []struct {
					Breaker   string `json:"breaker"`
					LastError string `json:"last_error"`
				} `json:"replicas"`
			} `json:"shards"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&shards)
		sresp.Body.Close()
		if err != nil {
			return err
		}
		healthy := true
		for _, sh := range shards.Shards {
			for _, r := range sh.Replicas {
				if r.Breaker != "closed" || r.LastError != "" {
					healthy = false
				}
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("s1-r0 never rejoined after restart")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Second walk resumes: already-swapped replicas reload as no-ops, the
	// repaired shard completes, and every replica converges on 2.
	out, code, err = rollout()
	if err != nil {
		return err
	}
	if code != 0 || !strings.Contains(out, "rollout done") {
		return fmt.Errorf("re-run rollout after repair: exit %d\n%s", code, out)
	}
	for _, rep := range []string{"s0-r0", "s1-r0", "s1-r1"} {
		if g, err := replicaGeneration(urls[rep]); err != nil || g != 2 {
			return fmt.Errorf("%s generation after the completed rollout = %d (%v), want 2", rep, g, err)
		}
	}
	ans, err = postBatch(coordBase)
	if err != nil {
		return err
	}
	if err := matchEntries(ans, want); err != nil {
		return fmt.Errorf("completed rollout changed answers: %w", err)
	}
	if ans.Degraded {
		return fmt.Errorf("post-rollout batch still degraded: partition %+v", ans.Shards)
	}
	for i, e := range ans.Entries {
		if e.MixedGenerations {
			return fmt.Errorf("post-rollout entry %d still flagged mixed_generations", i)
		}
	}
	fmt.Println("smoke: rollout OK (halt on dead replica, old generation served, repaired re-run to done)")
	return nil
}

// smokeSpan is the span shape the tracing assertions need.
type smokeSpan struct {
	Name   string         `json:"name"`
	ID     string         `json:"id"`
	Parent string         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

// tracingPhase proves the distributed-tracing contract against the degraded
// cluster (s1's primary is down): a ranked query with a known id must leave a
// retained trace on the coordinator — listed by GET /debug/traces, fetchable
// as an assembled tree whose cluster.shard:* subtrees contain the shards' own
// grafted rank spans — must render through `svq trace`, and must emit the
// one-line structured "trace retained" log record.
func tracingPhase(bins map[string]string, coordBase, sql string, coordLogs func() []map[string]any) error {
	const traceQID = "0ddba11cab1e0fae"
	raw, _ := json.Marshal(map[string]string{"sql": sql})
	req, err := http.NewRequest(http.MethodPost, coordBase+"/query", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Query-ID", traceQID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query status %d: %s", resp.StatusCode, body)
	}
	var qa struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &qa); err != nil {
		return err
	}
	if !qa.Degraded {
		return fmt.Errorf("query with a dead primary should be degraded: %s", body)
	}

	// The trace must appear on the coordinator's index with the degradation
	// as its retention reason.
	iresp, err := http.Get(coordBase + "/debug/traces")
	if err != nil {
		return err
	}
	ibody, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/traces status %d", iresp.StatusCode)
	}
	var idx struct {
		Count  int `json:"count"`
		Traces []struct {
			ID     string `json:"id"`
			Reason string `json:"reason"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(ibody, &idx); err != nil {
		return fmt.Errorf("trace index not JSON: %v\n%s", err, ibody)
	}
	found := false
	for _, e := range idx.Traces {
		if e.ID == traceQID {
			found = true
			if e.Reason != "degraded" {
				return fmt.Errorf("trace %s retained for %q, want degraded", e.ID, e.Reason)
			}
		}
	}
	if !found {
		return fmt.Errorf("trace %s not in /debug/traces (count %d): %s", traceQID, idx.Count, ibody)
	}

	// The full stored trace must be an assembled tree: the coordinator's
	// scatter spans with each shard's own execution spans grafted beneath
	// the winning attempt.
	tresp, err := http.Get(coordBase + "/debug/traces/" + traceQID)
	if err != nil {
		return err
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/traces/%s status %d: %s", traceQID, tresp.StatusCode, tbody)
	}
	var st struct {
		Outcome string `json:"outcome"`
		Trace   struct {
			QueryID string      `json:"query_id"`
			Spans   []smokeSpan `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(tbody, &st); err != nil {
		return fmt.Errorf("stored trace not JSON: %v\n%s", err, tbody)
	}
	if st.Outcome != "degraded" || st.Trace.QueryID != traceQID {
		return fmt.Errorf("stored trace outcome=%q query_id=%q", st.Outcome, st.Trace.QueryID)
	}
	byID := map[string]smokeSpan{}
	for _, sp := range st.Trace.Spans {
		byID[sp.ID] = sp
	}
	// ancestorNamed walks the parent chain looking for a span name.
	ancestorNamed := func(sp smokeSpan, name string) bool {
		for p := sp.Parent; p != ""; {
			ps, ok := byID[p]
			if !ok {
				return false
			}
			if ps.Name == name {
				return true
			}
			p = ps.Parent
		}
		return false
	}
	var root *smokeSpan
	for i, sp := range st.Trace.Spans {
		if sp.Name == "cluster.topk" && sp.Parent == "" {
			root = &st.Trace.Spans[i]
		}
	}
	if root == nil {
		return fmt.Errorf("no cluster.topk root span in %s", tbody)
	}
	for _, shardName := range []string{"cluster.shard:s0", "cluster.shard:s1"} {
		var shardSpan *smokeSpan
		for i, sp := range st.Trace.Spans {
			if sp.Name == shardName {
				shardSpan = &st.Trace.Spans[i]
			}
		}
		if shardSpan == nil || shardSpan.Parent != root.ID {
			return fmt.Errorf("%s missing or not under cluster.topk: %s", shardName, tbody)
		}
		attempts, grafted := 0, false
		for _, sp := range st.Trace.Spans {
			if sp.Name == "cluster.attempt" && sp.Parent == shardSpan.ID {
				attempts++
				if _, ok := sp.Attrs["replica"]; !ok {
					return fmt.Errorf("attempt under %s lacks replica attr: %+v", shardName, sp)
				}
			}
			// The shard's own spans arrive by graft: composite ids,
			// descendants of the shard span.
			if sp.Name == "rank.topk" && ancestorNamed(sp, shardName) {
				grafted = true
				if !strings.Contains(sp.ID, "/") {
					return fmt.Errorf("grafted rank.topk has non-composite id %q", sp.ID)
				}
			}
		}
		if attempts == 0 {
			return fmt.Errorf("no cluster.attempt span under %s: %s", shardName, tbody)
		}
		if !grafted {
			return fmt.Errorf("%s subtree lacks the shard's grafted rank.topk span: %s", shardName, tbody)
		}
	}
	if s1 := func() smokeSpan {
		for _, sp := range st.Trace.Spans {
			if sp.Name == "cluster.shard:s1" {
				return sp
			}
		}
		return smokeSpan{}
	}(); s1.Attrs["outcome"] != "degraded" {
		return fmt.Errorf("cluster.shard:s1 outcome attr = %v, want degraded (failover)", s1.Attrs["outcome"])
	}

	// `svq trace` renders the index and the waterfall from the same
	// endpoints.
	iout, err := exec.Command(bins["svq"], "trace", "-server", coordBase).CombinedOutput()
	if err != nil {
		return fmt.Errorf("svq trace (index): %v\n%s", err, iout)
	}
	if !strings.Contains(string(iout), traceQID) {
		return fmt.Errorf("svq trace index does not list %s:\n%s", traceQID, iout)
	}
	wout, err := exec.Command(bins["svq"], "trace", "-server", coordBase, traceQID).CombinedOutput()
	if err != nil {
		return fmt.Errorf("svq trace %s: %v\n%s", traceQID, err, wout)
	}
	wtext := string(wout)
	for _, wantLine := range []string{"trace " + traceQID, "cluster.topk", "cluster.shard:s1", "cluster.attempt", "rank.topk", "#"} {
		if !strings.Contains(wtext, wantLine) {
			return fmt.Errorf("svq trace waterfall missing %q:\n%s", wantLine, wtext)
		}
	}

	// The retention must have left the one-line structured log record.
	logged := false
	for _, rec := range coordLogs() {
		if rec["msg"] == "trace retained" && rec["trace_id"] == traceQID {
			for _, key := range []string{"reason", "outcome", "duration_ms", "sql_digest"} {
				if _, ok := rec[key]; !ok {
					return fmt.Errorf("trace-retained log line missing %q: %v", key, rec)
				}
			}
			logged = true
		}
	}
	if !logged {
		return fmt.Errorf("coordinator never logged 'trace retained' for %s", traceQID)
	}
	fmt.Println("smoke: tracing OK (retained trace, assembled tree, svq trace, log line)")
	return nil
}

// matchEntries compares every batch entry's top-k against the
// single-process ground truth.
func matchEntries(ans *clusterBatchAnswer, want [][]clusterSeq) error {
	if len(ans.Entries) != len(want) {
		return fmt.Errorf("batch has %d entries, want %d", len(ans.Entries), len(want))
	}
	for i, e := range ans.Entries {
		if len(e.Sequences) != len(want[i]) {
			return fmt.Errorf("entry %d: %d sequences, want %d", i, len(e.Sequences), len(want[i]))
		}
		for j, got := range e.Sequences {
			w := want[i][j]
			if got.Video != w.Video || got.StartClip != w.StartClip || got.EndClip != w.EndClip ||
				math.Abs(got.Score-w.Score) > 1e-9 {
				return fmt.Errorf("entry %d seq %d: got %+v, want %+v", i, j, got, w)
			}
		}
	}
	return nil
}

// startCoordinator launches cmd/coordinator with fast-recovery tuning and
// returns its process, resolved base URL, and a snapshot function over its
// structured log records (the tracing phase greps them for the retained-trace
// line).
func startCoordinator(bin string, shardArgs ...string) (*exec.Cmd, string, func() []map[string]any, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-base-backoff", "5ms", "-max-backoff", "50ms",
		"-breaker-threshold", "3", "-breaker-cooloff", "500ms",
		"-health-interval", "150ms",
		// Tight admission limits so the overload phase can provoke 429s
		// with a modest burst; the sequential phases never queue deeper
		// than one batch, so this does not perturb them.
		"-admit-concurrent", "2", "-admit-queue", "2", "-admit-wait", "300ms",
	}, shardArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", nil, err
	}
	var mu sync.Mutex
	var logLines []map[string]any
	logs := func() []map[string]any {
		mu.Lock()
		defer mu.Unlock()
		return append([]map[string]any(nil), logLines...)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			mu.Lock()
			logLines = append(logLines, rec)
			mu.Unlock()
			if rec["msg"] == "svq-act cluster coordinator listening" {
				if a, ok := rec["addr"].(string); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		return cmd, "http://" + a, logs, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		return nil, "", nil, fmt.Errorf("coordinator never logged its listening address")
	}
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server never became healthy")
}

var (
	seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?(Inf|[0-9].*))$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validateExposition enforces the Prometheus text format conventions the
// registry promises: legal metric and label names, a # TYPE line per
// family, and counter families named *_total.
func validateExposition(body []byte) error {
	types := map[string]string{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		s := string(line)
		switch {
		case s == "":
		case strings.HasPrefix(s, "# TYPE "):
			fields := strings.Fields(s)
			if len(fields) != 4 {
				return fmt.Errorf("malformed TYPE line %q", s)
			}
			name, typ := fields[2], fields[3]
			types[name] = typ
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				return fmt.Errorf("counter %q violates the _total naming convention", name)
			}
		case strings.HasPrefix(s, "# HELP "):
		case strings.HasPrefix(s, "#"):
			return fmt.Errorf("unknown comment line %q", s)
		default:
			m := seriesRe.FindStringSubmatch(s)
			if m == nil {
				return fmt.Errorf("malformed series line %q", s)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
			if _, ok := types[m[1]]; !ok {
				if _, ok := types[base]; !ok {
					return fmt.Errorf("series %q has no TYPE declaration", m[1])
				}
			}
			if m[2] != "" {
				for _, pair := range strings.Split(strings.Trim(m[2], "{}"), ",") {
					name, _, ok := strings.Cut(pair, "=")
					if !ok || !labelRe.MatchString(name) {
						return fmt.Errorf("bad label %q in %q", pair, s)
					}
				}
			}
		}
	}
	return nil
}

func seriesValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
