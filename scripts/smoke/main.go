// Smoke is the end-to-end check CI runs after the unit suites
// (scripts/check.sh). It drives the paper's two engines through real
// processes — online SVAQ/SVAQD behind cmd/serve, offline RVAQ over an
// ingested repository behind cmd/serve shards and cmd/coordinator — as an
// ordered table of phases over one shared state:
//
//	build          go build cmd/serve, cmd/ingest, cmd/svq, cmd/coordinator
//	durability     cmd/ingest SIGKILLed mid-run, resumed to completion; the
//	               result passes `svq fsck` and a bit-flipped pack fails it
//	observability  a fault-injected cmd/serve over that repository: query ID,
//	               trace spans, plan block, /metrics families and counters,
//	               a hot /repo/reload, /healthz agreement, the query log line
//	cascade        a -cascade server degrades a budget-capped query, with
//	               the tier and budget metrics moving
//	cluster start  `svq split` into two shards, the monolith's ground truth,
//	               three replicas and a coordinator; a healthy batch matches
//	failover       s1's primary SIGKILLed: same answers, s1 degraded
//	tracing        the degraded query's retained, assembled trace, `svq
//	               trace`, and the coordinator's "trace retained" log line
//	shard loss     s1's last replica SIGKILLed: 200 with s1 failed
//	recovery       both replicas restarted on their addresses: answers match
//	overload       a burst past the admission limits is shed with 429s
//	rollout        a rolling generation swap halts on a killed replica, the
//	               old generation keeps serving, a repaired re-run completes
//	cluster        the coordinator's metric families and counters
//	drain          every running child gets SIGTERM and must exit 0
//
// Every long-lived child is started, probed and stopped through
// benchmarks/harness: a fresh port, /healthz readiness, SIGTERM drain, and
// Pdeathsig, so a smoke that is itself killed takes its children along.
// Short-lived commands get Pdeathsig too. No child the smoke started may be
// alive when it exits.
//
//	go run ./scripts/smoke
package main

import (
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
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"svqact/benchmarks/harness"
	"svqact/internal/rank"
)

// onlineSQL is the online statement the observability and cascade phases
// serve: q2's blowing leaves with a car in frame.
const onlineSQL = "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car')"

// titanic is the movies workload's ranked statement (Table 2) up to its
// LIMIT; the cluster phases replay it at three depths.
const titanic = "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('surfboard','boat') ORDER BY RANK(act, obj) LIMIT "

var rankedQueries = []string{titanic + "3", titanic + "1", titanic + "5"}

// The query IDs the cluster phases send: the coordinator must adopt them.
const (
	batchQID = "feedc0defeedc0de"
	traceQID = "0ddba11cab1e0fae"
)

// requiredFamilies must all appear on cmd/serve's /metrics after one query.
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

// coordinatorFamilies must all appear on cmd/coordinator's /metrics.
var coordinatorFamilies = []string{
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
}

// phases run in order over one smoke. A phase returns the note of its OK
// line, or "" for a step that prints none.
var phases = []struct {
	name string
	run  func(*smoke) (string, error)
}{
	{"build", (*smoke).build},
	{"durability", (*smoke).durability},
	{"observability", (*smoke).observability},
	{"cascade", (*smoke).cascade},
	{"cluster start", (*smoke).clusterStart},
	{"failover", (*smoke).failover},
	{"tracing", (*smoke).tracing},
	{"shard loss", (*smoke).shardLoss},
	{"recovery", (*smoke).recovery},
	{"overload", (*smoke).overload},
	{"rollout", (*smoke).rollout},
	{"cluster", (*smoke).clusterMetrics},
	{"drain", (*smoke).drain},
}

// smoke is the state the phases share.
type smoke struct {
	dir   string                   // scratch root: bin/, repo/, shards/, logs/
	bin   map[string]string        // command name -> built binary
	procs map[string]*harness.Proc // running long-lived children by name
	addrs map[string]string        // every long-lived child's address by name; a restart reuses it
	pids  []int                    // every child started, for the leak check
	want  [][]clusterSeq           // the monolith's answers to rankedQueries
}

// client carries every request; the overload burst needs one connection per
// request.
var client = harness.NewClient(32)

func main() {
	dir, err := os.MkdirTemp("", "svqact-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	s := &smoke{dir: dir, bin: map[string]string{}, procs: map[string]*harness.Proc{}, addrs: map[string]string{}}
	if err := s.runPhases(); err != nil {
		os.RemoveAll(s.path("bin"))
		fmt.Fprintf(os.Stderr, "smoke: FAIL: %v\nsmoke: repositories and child logs kept in %s\n", err, dir)
		os.Exit(1)
	}
	os.RemoveAll(dir)
	fmt.Println("smoke: OK")
}

// runPhases runs the phases in order; after a failure it still drains whatever is
// running, so no child outlives the smoke.
func (s *smoke) runPhases() error {
	for _, ph := range phases {
		note, err := ph.run(s)
		if err != nil {
			_, derr := s.drain()
			return errors.Join(fmt.Errorf("%s: %w", ph.name, err), derr)
		}
		if note != "" {
			fmt.Printf("smoke: %s OK (%s)\n", ph.name, note)
		}
	}
	return nil
}

func (s *smoke) path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

func (s *smoke) url(name string) string { return "http://" + s.addrs[name] }

// run runs a short-lived command to completion and returns its combined
// output.
func (s *smoke) run(bin string, args ...string) (string, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if cmd.Process != nil {
		s.pids = append(s.pids, cmd.Process.Pid)
	}
	return string(out), err
}

// start launches a long-lived child of the built command bin, listening on a
// fresh port — or, on a restart, on the address the name had before — and
// waits until its /healthz answers 200.
func (s *smoke) start(name, bin string, args ...string) error {
	addr, restart := s.addrs[name]
	if !restart {
		var err error
		if addr, err = harness.FreeAddr(); err != nil {
			return err
		}
	}
	p, err := harness.Start(name, s.bin[bin], addr, s.path("logs"), append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return err
	}
	s.procs[name], s.addrs[name] = p, p.Addr
	s.pids = append(s.pids, p.PID())
	return p.WaitHealthy(client, 30*time.Second)
}

// startReplica starts (or restarts) a cmd/serve replica of a shard; its name
// is the shard's followed by the replica's, as in s1-r0.
func (s *smoke) startReplica(name string) error {
	shard := name[:2]
	return s.start(name, "serve", "-scale", "0.05", "-repo", s.path("shards", "shard"+shard[1:]), "-shard-name", shard)
}

// stop drains one child: SIGTERM, and it must exit 0.
func (s *smoke) stop(name string) error {
	p := s.procs[name]
	delete(s.procs, name)
	return p.Stop(10 * time.Second)
}

// kill SIGKILLs a child on purpose — no drain, as in a crash.
func (s *smoke) kill(name string) error {
	p := s.procs[name]
	delete(s.procs, name)
	return sigkill(p)
}

// sigkill sends SIGKILL and waits until the child has been reaped.
func sigkill(p *harness.Proc) error {
	if err := syscall.Kill(p.PID(), syscall.SIGKILL); err != nil && !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("killing %s: %w", p.Name, err)
	}
	for deadline := time.Now().Add(10 * time.Second); !p.Exited(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s outlived SIGKILL", p.Name)
		}
	}
	return nil
}

// drain stops every running child, each of which must exit 0 after SIGTERM,
// then requires that no child the smoke started is still alive.
func (s *smoke) drain() (string, error) {
	names := make([]string, 0, len(s.procs))
	for name := range s.procs {
		names = append(names, name)
	}
	sort.Strings(names) // the coordinator before its shards
	// A connection the client dialled but never used would hold a draining
	// server for its 5 s new-connection grace.
	client.CloseIdleConnections()
	var errs []error
	for _, name := range names {
		errs = append(errs, s.stop(name))
	}
	for _, pid := range s.pids {
		if harness.Alive(pid) {
			errs = append(errs, fmt.Errorf("child pid %d is still alive", pid))
		}
	}
	return "", errors.Join(errs...)
}

// logRecord waits for a structured JSON record with this msg and key=value
// in a child's stderr log, and returns it.
func (s *smoke) logRecord(name, msg, key, value string) (map[string]any, error) {
	path := s.path("logs", name+".stderr.log")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.Split(raw, []byte("\n")) {
			var rec map[string]any
			if json.Unmarshal(line, &rec) == nil && rec["msg"] == msg && rec[key] == value {
				return rec, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s never logged %q for %s %s", name, msg, key, value)
		}
	}
}

// answer is one HTTP response, read in full.
type answer struct {
	status int
	header http.Header
	body   []byte
}

// call sends one request, with X-Query-ID when qid is set.
func call(method, url, body, qid string) (*answer, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if qid != "" {
		req.Header.Set("X-Query-ID", qid)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return &answer{resp.StatusCode, resp.Header, b}, err
}

// fetch is call for an answer that must be 200 with a JSON body, decoded
// into out when out is non-nil.
func fetch(method, url, body, qid string, out any) (*answer, error) {
	a, err := call(method, url, body, qid)
	if err != nil {
		return nil, err
	}
	if a.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, a.status, a.body)
	}
	if out != nil {
		if err := json.Unmarshal(a.body, out); err != nil {
			return nil, fmt.Errorf("%s %s: answer not JSON: %v\n%s", method, url, err, a.body)
		}
	}
	return a, nil
}

func get(url string, out any) (*answer, error) { return fetch(http.MethodGet, url, "", "", out) }

func post(url string, body any, qid string, out any) (*answer, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return fetch(http.MethodPost, url, string(raw), qid, out)
}

// sqlBody is the /query request body for one statement.
func sqlBody(sql string) map[string]any { return map[string]any{"sql": sql} }

// scrape reads base's /metrics: the parsed series, and the exposition text
// for its # TYPE lines.
func scrape(base string) (harness.Samples, string, error) {
	a, err := get(base+"/metrics", nil)
	if err != nil {
		return nil, "", err
	}
	if ct := a.header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return nil, "", fmt.Errorf("metrics content type %q", ct)
	}
	m, err := harness.ParseProm(bytes.NewReader(a.body))
	return m, string(a.body), err
}

// hasFamilies checks that each family has a # TYPE line.
func hasFamilies(text string, families []string) error {
	for _, fam := range families {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			return fmt.Errorf("metrics missing family %s", fam)
		}
	}
	return nil
}

// positive checks that each series is exposed and above zero; why says
// what should have moved it.
func positive(m harness.Samples, why string, series ...string) error {
	for _, name := range series {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("metrics missing series %s", name)
		}
		if v <= 0 {
			return fmt.Errorf("series %s = %v, want > 0 %s", name, v, why)
		}
	}
	return nil
}

func (s *smoke) build() (string, error) {
	for _, name := range []string{"serve", "ingest", "svq", "coordinator"} {
		s.bin[name] = s.path("bin", name)
		if out, err := s.run("go", "build", "-o", s.bin[name], "./cmd/"+name); err != nil {
			return "", fmt.Errorf("building cmd/%s: %v\n%s", name, err, out)
		}
	}
	return "", nil
}

// durability proves the crash-safety contract end to end: an ingest run is
// SIGKILLed as soon as its first generation commits, the re-run resumes and
// completes, the result passes `svq fsck`, and a bit-flipped table pack
// makes fsck fail.
func (s *smoke) durability() (string, error) {
	repo := s.path("repo")
	args := []string{"-dataset", "movies", "-scale", "0.05", "-out", repo}

	// First run: the checkpoint is written (atomically) right after a
	// member's generation commits, so when it appears the repository holds
	// exactly one finished video. A run that finishes before it can be
	// killed leaves the resume nothing to do, which is still valid.
	first, err := harness.Start("ingest", s.bin["ingest"], "", s.path("logs"), args...)
	if err != nil {
		return "", err
	}
	s.pids = append(s.pids, first.PID())
	killed := false
	for deadline := time.Now().Add(60 * time.Second); !killed && !first.Exited(); time.Sleep(2 * time.Millisecond) {
		_, err := os.Stat(filepath.Join(repo, ".ingest-checkpoint.json"))
		killed = err == nil
		if !killed && time.Now().After(deadline) {
			return "", errors.Join(errors.New("ingest neither committed a generation nor finished within 60s"), sigkill(first))
		}
	}
	if killed {
		if err := sigkill(first); err != nil {
			return "", err
		}
	}

	// The second run must complete the repository from whatever survived.
	out, err := s.run(s.bin["ingest"], args...)
	if err != nil {
		return "", fmt.Errorf("resumed ingest failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "now holds 4 videos") {
		return "", fmt.Errorf("resumed ingest did not complete the repository:\n%s", out)
	}
	if killed && !strings.Contains(out, "skipped") && !strings.Contains(out, "resuming") {
		return "", fmt.Errorf("resumed ingest after SIGKILL shows no resume/skip activity:\n%s", out)
	}
	if out, err := s.run(s.bin["svq"], "fsck", repo); err != nil {
		return "", fmt.Errorf("fsck of recovered repository failed: %v\n%s", err, out)
	}

	// fsck must also detect damage: one byte flipped in the middle of a
	// member's table pack lands inside some table's section.
	var pack string
	filepath.WalkDir(repo, func(p string, d os.DirEntry, err error) error {
		if err == nil && pack == "" && d.Name() == "tables.pack" {
			pack = p
		}
		return nil
	})
	if pack == "" {
		return "", fmt.Errorf("no table pack in %s", repo)
	}
	orig, err := os.ReadFile(pack)
	if err != nil {
		return "", err
	}
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(pack, flipped, 0o644); err != nil {
		return "", err
	}
	if out, err := s.run(s.bin["svq"], "fsck", repo); err == nil {
		return "", fmt.Errorf("fsck accepted a bit-flipped table pack:\n%s", out)
	}
	return fmt.Sprintf("killed mid-ingest: %v", killed), os.WriteFile(pack, orig, 0o644)
}

// observability serves the recovered repository with fault injection and
// checks the whole per-query surface of one online query.
func (s *smoke) observability() (string, error) {
	if err := s.start("serve", "serve", "-scale", "0.05", "-repo", s.path("repo"),
		"-fault-transient", "0.1", "-fault-permanent", "0.005",
		"-detect-retries", "3", "-failure-budget", "0.9"); err != nil {
		return "", err
	}
	base := s.url("serve")

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
	a, err := post(base+"/query", sqlBody(onlineSQL), "", &qr)
	if err != nil {
		return "", err
	}
	qid := a.header.Get("X-Query-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(qid) {
		return "", fmt.Errorf("X-Query-ID = %q, want 16 hex chars", qid)
	}
	if qr.QueryID != qid || qr.Trace == nil || qr.Trace.QueryID != qid {
		return "", fmt.Errorf("query ID not stable across header/body/trace: header %q body %q", qid, qr.QueryID)
	}
	spans := map[string]bool{}
	for _, sp := range qr.Trace.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"engine.run", "plan.order", "predicate:car", "predicate:blowing_leaves"} {
		if !spans[want] {
			return "", fmt.Errorf("trace missing span %q (have %v)", want, qr.Trace.Spans)
		}
	}
	// The predicate plan block: adaptive, with both the chosen and the
	// declared orders over the query's two predicates.
	if qr.Plan == nil {
		return "", fmt.Errorf("query response carries no plan block: %s", a.body)
	}
	if !qr.Plan.Adaptive || len(qr.Plan.Order) != 2 || len(qr.Plan.Declared) != 2 || len(qr.Plan.Nodes) != 2 {
		return "", fmt.Errorf("malformed plan block: %+v", qr.Plan)
	}

	m, text, err := scrape(base)
	if err != nil {
		return "", err
	}
	if err := hasFamilies(text, requiredFamilies); err != nil {
		return "", err
	}
	if err := positive(m, "under fault injection",
		`svqact_detect_retries_total{kind="action"}`,
		`svqact_detect_flagged_clips_total{kind="action"}`,
		`svqact_query_duration_seconds_count`); err != nil {
		return "", err
	}

	// The repository serves a committed generation, and a hot reload
	// succeeds and shows up on the counters.
	if err := positive(m, "with -repo", "svqact_repo_generation"); err != nil {
		return "", err
	}
	if _, err := fetch(http.MethodPost, base+"/repo/reload", "", "", nil); err != nil {
		return "", err
	}
	m2, _, err := scrape(base)
	if err != nil {
		return "", err
	}
	if v := m2[`svqact_repo_reloads_total{outcome="ok"}`]; v < 2 {
		return "", fmt.Errorf(`svqact_repo_reloads_total{outcome="ok"} = %v, want >= 2 (startup + hot reload)`, v)
	}

	// /healthz and /metrics agree on the shared counters.
	var hz struct {
		Served float64 `json:"served"`
	}
	if _, err := get(base+"/healthz", &hz); err != nil {
		return "", err
	}
	if v := m["svqact_queries_served_total"]; v != hz.Served {
		return "", fmt.Errorf("served disagrees: metrics %v, healthz %v", v, hz.Served)
	}

	rec, err := s.logRecord("serve", "query", "query_id", qid)
	if err != nil {
		return "", err
	}
	for _, key := range []string{"statement", "outcome", "degraded", "interrupted"} {
		if _, ok := rec[key]; !ok {
			return "", fmt.Errorf("query log line missing %q: %v", key, rec)
		}
	}
	return "", nil
}

// cascade proves the tiered-cascade serving surface: a -cascade server
// answers a budget-capped query by degrading (clips skipped and flagged, an
// honest budget block, HTTP 200), and /metrics shows the per-tier detector
// counters and the budget families moving.
func (s *smoke) cascade() (string, error) {
	if err := s.start("cascade", "serve", "-scale", "0.05", "-cascade"); err != nil {
		return "", err
	}
	base := s.url("cascade")
	var qr struct {
		FlaggedClips int `json:"flagged_clips"`
		Plan         *struct {
			Tiered bool `json:"tiered"`
			Budget *struct {
				LimitMS      float64 `json:"limit_ms"`
				SkippedClips int64   `json:"skipped_clips"`
				Exhausted    bool    `json:"exhausted"`
			} `json:"budget"`
			Nodes []struct {
				Name  string     `json:"name"`
				Tier  string     `json:"tier"`
				Tiers []struct{} `json:"tiers"`
			} `json:"nodes"`
		} `json:"plan"`
	}
	a, err := post(base+"/query", map[string]any{"sql": onlineSQL, "budget_ms": 200}, "", &qr)
	if err != nil {
		return "", fmt.Errorf("budget-capped query must degrade: %w", err)
	}
	if qr.Plan == nil || !qr.Plan.Tiered {
		return "", fmt.Errorf("cascade plan block not tiered: %s", a.body)
	}
	b := qr.Plan.Budget
	if b == nil || !b.Exhausted || b.SkippedClips == 0 || b.LimitMS != 200 {
		return "", fmt.Errorf("budget block not honest under a 200ms cap: %s", a.body)
	}
	if int64(qr.FlaggedClips) < b.SkippedClips {
		return "", fmt.Errorf("flagged_clips %d below budget-skipped %d", qr.FlaggedClips, b.SkippedClips)
	}
	for _, n := range qr.Plan.Nodes {
		if n.Tier == "" || len(n.Tiers) != 2 {
			return "", fmt.Errorf("node %s missing tier model: %s", n.Name, a.body)
		}
	}

	m, _, err := scrape(base)
	if err != nil {
		return "", err
	}
	if err := positive(m, "after a cascade query",
		`svqact_detect_tier_units_total{kind="object",tier="distilled-rcnn"}`,
		`svqact_detect_tier_decisions_total{kind="object",outcome="decided",tier="distilled-rcnn"}`,
		`svqact_plan_tier_queries_total`,
		`svqact_plan_tier_budget_skipped_clips_total`,
		`svqact_plan_tier_budget_exhausted_total`); err != nil {
		return "", err
	}
	return "budget-capped query degraded with tier metrics moving", s.stop("cascade")
}

// clusterSeq is the sequence shape shared by the coordinator's entries and
// the single-process server's ranked answers.
type clusterSeq struct {
	Video     string  `json:"video"`
	StartClip int     `json:"start_clip"`
	EndClip   int     `json:"end_clip"`
	Score     float64 `json:"score"`
}

type clusterBatchAnswer struct {
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

// batch posts rankedQueries to the coordinator's /query/batch under
// batchQID.
func (s *smoke) batch() (*clusterBatchAnswer, error) {
	var ans clusterBatchAnswer
	a, err := post(s.url("coordinator")+"/query/batch", map[string]any{"queries": rankedQueries}, batchQID, &ans)
	if err != nil {
		return nil, fmt.Errorf("batch (want 200 even when degraded): %w", err)
	}
	if got := a.header.Get("X-Query-ID"); got != batchQID {
		return nil, fmt.Errorf("coordinator X-Query-ID = %q, want the inbound id adopted", got)
	}
	return &ans, nil
}

// matchBatch posts the batch, whose answers must still be the monolith's;
// what names the event that would have changed them.
func (s *smoke) matchBatch(what string) (*clusterBatchAnswer, error) {
	ans, err := s.batch()
	if err != nil {
		return nil, err
	}
	if err := s.match(ans); err != nil {
		return nil, fmt.Errorf("%s changed answers: %w", what, err)
	}
	return ans, nil
}

// match compares every entry's top-k against the single-process ground
// truth.
func (s *smoke) match(ans *clusterBatchAnswer) error {
	if len(ans.Entries) != len(s.want) {
		return fmt.Errorf("batch has %d entries, want %d", len(ans.Entries), len(s.want))
	}
	for i, e := range ans.Entries {
		if len(e.Sequences) != len(s.want[i]) {
			return fmt.Errorf("entry %d: %d sequences, want %d", i, len(e.Sequences), len(s.want[i]))
		}
		for j, got := range e.Sequences {
			w := s.want[i][j]
			if got.Video != w.Video || got.StartClip != w.StartClip || got.EndClip != w.EndClip ||
				math.Abs(got.Score-w.Score) > 1e-9 {
				return fmt.Errorf("entry %d seq %d: got %+v, want %+v", i, j, got, w)
			}
		}
	}
	return nil
}

// clusterStart splits the repository into two shard repositories (`svq
// split`), records the monolith's answers as ground truth, and serves the
// shards with three cmd/serve replicas (s1 has two) behind cmd/coordinator.
// The healthy cluster must answer like the monolith with both shards ok.
func (s *smoke) clusterStart() (string, error) {
	if out, err := s.run(s.bin["svq"], "split", "-n", "2", "-out", s.path("shards"), s.path("repo")); err != nil {
		return "", fmt.Errorf("svq split: %v\n%s", err, out)
	}
	for _, sql := range rankedQueries {
		var qr struct {
			Sequences []clusterSeq `json:"sequences"`
		}
		a, err := post(s.url("serve")+"/query", sqlBody(sql), "", &qr)
		if err != nil {
			return "", fmt.Errorf("monolith: %w", err)
		}
		if len(qr.Sequences) == 0 {
			return "", fmt.Errorf("monolith ranked query returned no sequences: %s", a.body)
		}
		s.want = append(s.want, qr.Sequences)
	}

	for _, name := range []string{"s0-r0", "s1-r0", "s1-r1"} {
		if err := s.startReplica(name); err != nil {
			return "", err
		}
	}
	if err := s.start("coordinator", "coordinator",
		"-base-backoff", "5ms", "-max-backoff", "50ms",
		"-breaker-threshold", "3", "-breaker-cooloff", "500ms",
		"-health-interval", "150ms",
		// Tight admission limits so the overload phase can provoke 429s
		// with a modest burst; the sequential phases never queue deeper
		// than one batch, so this does not perturb them.
		"-admit-concurrent", "2", "-admit-queue", "2", "-admit-wait", "300ms",
		"-shard", "s0="+s.url("s0-r0"),
		"-shard", "s1="+s.url("s1-r0")+","+s.url("s1-r1")); err != nil {
		return "", err
	}

	ans, err := s.matchBatch("sharding")
	if err != nil {
		return "", err
	}
	if ans.Degraded || len(ans.Shards.OK) != 2 {
		return "", fmt.Errorf("healthy batch reports partition %+v", ans.Shards)
	}
	return "", nil
}

// failover kills s1's primary: the answers must not change, but the
// partition must name s1 degraded (served by its failover replica).
func (s *smoke) failover() (string, error) {
	if err := s.kill("s1-r0"); err != nil {
		return "", err
	}
	ans, err := s.matchBatch("failover")
	if err != nil {
		return "", err
	}
	if !ans.Degraded || fmt.Sprint(ans.Shards.Degraded) != "[s1]" {
		return "", fmt.Errorf("after killing s1 primary: degraded=%v partition %+v, want s1 degraded", ans.Degraded, ans.Shards)
	}
	return "", nil
}

// smokeSpan is the span shape the tracing assertions need.
type smokeSpan struct {
	Name   string         `json:"name"`
	ID     string         `json:"id"`
	Parent string         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

// tracing proves the distributed-tracing contract against the degraded
// cluster (s1's primary is down): a ranked query with a known id must leave
// a retained trace on the coordinator — listed by GET /debug/traces,
// fetchable as an assembled tree whose cluster.shard:* subtrees contain the
// shards' own grafted rank spans — must render through `svq trace`, and
// must emit the one-line structured "trace retained" log record.
func (s *smoke) tracing() (string, error) {
	coord := s.url("coordinator")
	var qa struct {
		Degraded bool `json:"degraded"`
	}
	a, err := post(coord+"/query", sqlBody(rankedQueries[0]), traceQID, &qa)
	if err != nil {
		return "", err
	}
	if !qa.Degraded {
		return "", fmt.Errorf("query with a dead primary should be degraded: %s", a.body)
	}

	// The coordinator's index lists the trace, retained for the degradation.
	var idx struct {
		Count  int `json:"count"`
		Traces []struct {
			ID     string `json:"id"`
			Reason string `json:"reason"`
		} `json:"traces"`
	}
	a, err = get(coord+"/debug/traces", &idx)
	if err != nil {
		return "", err
	}
	found := false
	for _, e := range idx.Traces {
		if e.ID == traceQID {
			found = true
			if e.Reason != "degraded" {
				return "", fmt.Errorf("trace %s retained for %q, want degraded", e.ID, e.Reason)
			}
		}
	}
	if !found {
		return "", fmt.Errorf("trace %s not in /debug/traces (count %d): %s", traceQID, idx.Count, a.body)
	}

	// The stored trace is an assembled tree: the coordinator's scatter spans
	// with each shard's own execution spans grafted beneath the winning
	// attempt.
	var st struct {
		Outcome string `json:"outcome"`
		Trace   struct {
			QueryID string      `json:"query_id"`
			Spans   []smokeSpan `json:"spans"`
		} `json:"trace"`
	}
	a, err = get(coord+"/debug/traces/"+traceQID, &st)
	if err != nil {
		return "", err
	}
	if st.Outcome != "degraded" || st.Trace.QueryID != traceQID {
		return "", fmt.Errorf("stored trace outcome=%q query_id=%q", st.Outcome, st.Trace.QueryID)
	}
	byID := map[string]smokeSpan{}
	named := map[string]smokeSpan{}
	for _, sp := range st.Trace.Spans {
		byID[sp.ID] = sp
		if _, ok := named[sp.Name]; !ok {
			named[sp.Name] = sp
		}
	}
	// under reports whether a span descends from one with the given id.
	under := func(sp smokeSpan, id string) bool {
		for ok := true; ok && sp.Parent != ""; sp, ok = byID[sp.Parent] {
			if sp.Parent == id {
				return true
			}
		}
		return false
	}
	root, ok := named["cluster.topk"]
	if !ok || root.Parent != "" {
		return "", fmt.Errorf("no cluster.topk root span in %s", a.body)
	}
	for _, shardName := range []string{"cluster.shard:s0", "cluster.shard:s1"} {
		shard, ok := named[shardName]
		if !ok || shard.Parent != root.ID {
			return "", fmt.Errorf("%s missing or not under cluster.topk: %s", shardName, a.body)
		}
		attempts, grafted := 0, false
		for _, sp := range st.Trace.Spans {
			if sp.Name == "cluster.attempt" && sp.Parent == shard.ID {
				attempts++
				if _, ok := sp.Attrs["replica"]; !ok {
					return "", fmt.Errorf("attempt under %s lacks replica attr: %+v", shardName, sp)
				}
			}
			// The shard's own spans arrive by graft: composite ids,
			// descendants of the shard span.
			if sp.Name == "rank.topk" && under(sp, shard.ID) {
				grafted = true
				if !strings.Contains(sp.ID, "/") {
					return "", fmt.Errorf("grafted rank.topk has non-composite id %q", sp.ID)
				}
			}
		}
		if attempts == 0 {
			return "", fmt.Errorf("no cluster.attempt span under %s: %s", shardName, a.body)
		}
		if !grafted {
			return "", fmt.Errorf("%s subtree lacks the shard's grafted rank.topk span: %s", shardName, a.body)
		}
	}
	if o := named["cluster.shard:s1"].Attrs["outcome"]; o != "degraded" {
		return "", fmt.Errorf("cluster.shard:s1 outcome attr = %v, want degraded (failover)", o)
	}

	// `svq trace` renders the index and the waterfall from the same
	// endpoints.
	out, err := s.run(s.bin["svq"], "trace", "-server", coord)
	if err != nil {
		return "", fmt.Errorf("svq trace (index): %v\n%s", err, out)
	}
	if !strings.Contains(out, traceQID) {
		return "", fmt.Errorf("svq trace index does not list %s:\n%s", traceQID, out)
	}
	if out, err = s.run(s.bin["svq"], "trace", "-server", coord, traceQID); err != nil {
		return "", fmt.Errorf("svq trace %s: %v\n%s", traceQID, err, out)
	}
	for _, want := range []string{"trace " + traceQID, "cluster.topk", "cluster.shard:s1", "cluster.attempt", "rank.topk", "#"} {
		if !strings.Contains(out, want) {
			return "", fmt.Errorf("svq trace waterfall missing %q:\n%s", want, out)
		}
	}

	rec, err := s.logRecord("coordinator", "trace retained", "trace_id", traceQID)
	if err != nil {
		return "", err
	}
	for _, key := range []string{"reason", "outcome", "duration_ms", "sql_digest"} {
		if _, ok := rec[key]; !ok {
			return "", fmt.Errorf("trace-retained log line missing %q: %v", key, rec)
		}
	}
	return "retained trace, assembled tree, svq trace, log line", nil
}

// shardLoss kills s1's last replica: the batch still answers 200 with
// partial results, and the failed partition names the lost shard.
func (s *smoke) shardLoss() (string, error) {
	if err := s.kill("s1-r1"); err != nil {
		return "", err
	}
	ans, err := s.batch()
	if err != nil {
		return "", err
	}
	if !ans.Degraded || fmt.Sprint(ans.Shards.Failed) != "[s1]" {
		return "", fmt.Errorf("after losing s1: degraded=%v partition %+v, want s1 failed", ans.Degraded, ans.Shards)
	}
	for i, e := range ans.Entries {
		if !e.Degraded || !strings.Contains(e.Error, "s1") {
			return "", fmt.Errorf("entry %d of a degraded batch should carry an error naming s1: %+v", i, e)
		}
	}
	return "", nil
}

// recovery restarts both s1 replicas on their old addresses: the health
// checker closes the breakers and the cluster recovers to a clean partition
// that answers like the monolith.
func (s *smoke) recovery() (string, error) {
	for _, name := range []string{"s1-r0", "s1-r1"} {
		if err := s.startReplica(name); err != nil {
			return "", fmt.Errorf("restarting %s: %w", name, err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(200 * time.Millisecond) {
		ans, err := s.batch()
		if err != nil {
			return "", err
		}
		if !ans.Degraded && len(ans.Shards.OK) == 2 {
			if err := s.match(ans); err != nil {
				return "", fmt.Errorf("recovered cluster disagrees with the monolith: %w", err)
			}
			return "", nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("cluster never recovered after replica restart: partition %+v", ans.Shards)
		}
	}
}

// overload fires a burst of concurrent queries far beyond the coordinator's
// admission limits (-admit-concurrent 2 -admit-queue 2) and requires load
// shedding before the shards: at least one 429 with a Retry-After hint,
// while the rest still answer 200. The admission block on /healthz must
// agree.
func (s *smoke) overload() (string, error) {
	raw, _ := json.Marshal(sqlBody(rankedQueries[0])) // a map of strings always encodes
	const burst = 24
	answers := make([]*answer, burst)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A request that fails outright leaves nil: neither 200 nor 429.
			answers[i], _ = call(http.MethodPost, s.url("coordinator")+"/query", string(raw), "")
		}()
	}
	wg.Wait()
	var ok200, shed, other int
	for _, a := range answers {
		switch {
		case a == nil:
			other++
		case a.status == http.StatusOK:
			ok200++
		case a.status == http.StatusTooManyRequests:
			shed++
			if ra := a.header.Get("Retry-After"); ra == "" || ra == "0" {
				return "", fmt.Errorf("a 429 carried Retry-After %q, want a positive seconds value", ra)
			}
		default:
			other++
		}
	}
	if other > 0 {
		return "", fmt.Errorf("burst of %d: %d answers were neither 200 nor 429", burst, other)
	}
	if shed == 0 {
		return "", fmt.Errorf("burst of %d against capacity 2 + queue 2 shed nothing", burst)
	}
	if ok200 == 0 {
		return "", fmt.Errorf("burst of %d: everything was shed, nothing served", burst)
	}

	var hz struct {
		Admission struct {
			Capacity int `json:"capacity"`
			Admitted int `json:"admitted"`
			Rejected int `json:"rejected"`
		} `json:"admission"`
	}
	if _, err := get(s.url("coordinator")+"/healthz", &hz); err != nil {
		return "", err
	}
	if hz.Admission.Capacity != 2 || hz.Admission.Admitted <= 0 || hz.Admission.Rejected < shed {
		return "", fmt.Errorf("healthz admission block %+v disagrees with the burst (shed %d)", hz.Admission, shed)
	}
	return fmt.Sprintf("%d served, %d shed with Retry-After", ok200, shed), nil
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

// generations checks the generation each named replica serves on GET
// /repo/status.
func (s *smoke) generations(want int, why string, replicas ...string) error {
	for _, name := range replicas {
		var rs struct {
			Generation int `json:"generation"`
		}
		_, err := get(s.url(name)+"/repo/status", &rs)
		if err != nil || rs.Generation != want {
			return fmt.Errorf("%s generation %s = %d (%v), want %d", name, why, rs.Generation, err, want)
		}
	}
	return nil
}

// rollout proves the health-gated rolling generation swap. Generation 2 is
// committed to both shard repositories, s1's primary is killed, and `svq
// rollout` must halt there (exit 1) with s0 already swapped — the cluster
// keeps answering correctly, flagged as mixed-generation, with s1's
// survivor still on the old generation. After the dead replica restarts, a
// second `svq rollout` must run to completion and converge every replica on
// generation 2.
func (s *smoke) rollout() (string, error) {
	for _, shard := range []string{"shard0", "shard1"} {
		if err := bumpGenerations(s.path("shards", shard)); err != nil {
			return "", err
		}
	}
	if err := s.kill("s1-r0"); err != nil {
		return "", err
	}
	rollout := func() (string, int, error) {
		out, err := s.run(s.bin["svq"], "rollout",
			"-server", s.url("coordinator"), "-canary", titanic+"1",
			"-drain-wait", "50ms", "-interval", "50ms", "-timeout", "60s")
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return out, exit.ExitCode(), nil
		}
		return out, 0, err
	}

	// First walk: s0 swaps to generation 2, then the dead s1-r0 halts the
	// rollout before s1's survivor is ever touched.
	out, code, err := rollout()
	if err != nil {
		return "", err
	}
	if code != 1 || !strings.Contains(out, "failed") || !strings.Contains(out, "s1-r0") {
		return "", fmt.Errorf("rollout against a dead replica: exit %d, want 1 with a failure naming s1-r0\n%s", code, out)
	}
	if err := s.generations(2, "after the halted rollout", "s0-r0"); err != nil {
		return "", err
	}
	if err := s.generations(1, "after the halt (old generation keeps serving)", "s1-r1"); err != nil {
		return "", err
	}

	// Mid-halt the cluster is mixed (s0 on 2, s1 surviving on 1): answers
	// must still match the ground truth, flagged mixed and degraded.
	ans, err := s.matchBatch("halted rollout")
	if err != nil {
		return "", err
	}
	if !ans.Degraded {
		return "", fmt.Errorf("mid-halt batch not degraded: partition %+v", ans.Shards)
	}
	for i, e := range ans.Entries {
		if !e.MixedGenerations {
			return "", fmt.Errorf("mid-halt entry %d not flagged mixed_generations", i)
		}
	}

	// Repair: restart the dead replica on its old address and wait for the
	// health checker to close its breaker again.
	if err := s.startReplica("s1-r0"); err != nil {
		return "", fmt.Errorf("restarting s1-r0: %w", err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		var shards struct {
			Shards []struct {
				Replicas []struct {
					Breaker   string `json:"breaker"`
					LastError string `json:"last_error"`
				} `json:"replicas"`
			} `json:"shards"`
		}
		if _, err := get(s.url("coordinator")+"/shards", &shards); err != nil {
			return "", err
		}
		healthy := true
		for _, sh := range shards.Shards {
			for _, r := range sh.Replicas {
				healthy = healthy && r.Breaker == "closed" && r.LastError == ""
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("s1-r0 never rejoined after restart")
		}
	}

	// The second walk resumes: already-swapped replicas reload as no-ops,
	// the repaired shard completes, and every replica converges on 2.
	if out, code, err = rollout(); err != nil {
		return "", err
	}
	if code != 0 || !strings.Contains(out, "rollout done") {
		return "", fmt.Errorf("re-run rollout after repair: exit %d\n%s", code, out)
	}
	if err := s.generations(2, "after the completed rollout", "s0-r0", "s1-r0", "s1-r1"); err != nil {
		return "", err
	}
	if ans, err = s.matchBatch("completed rollout"); err != nil {
		return "", err
	}
	if ans.Degraded {
		return "", fmt.Errorf("post-rollout batch still degraded: partition %+v", ans.Shards)
	}
	for i, e := range ans.Entries {
		if e.MixedGenerations {
			return "", fmt.Errorf("post-rollout entry %d still flagged mixed_generations", i)
		}
	}
	return "halt on dead replica, old generation served, repaired re-run to done", nil
}

// clusterMetrics checks the coordinator's metrics surface: the cluster
// families, and the counters every earlier cluster phase must have moved.
func (s *smoke) clusterMetrics() (string, error) {
	m, text, err := scrape(s.url("coordinator"))
	if err != nil {
		return "", err
	}
	if err := hasFamilies(text, coordinatorFamilies); err != nil {
		return "", err
	}
	for series, why := range map[string]string{
		`svqact_cluster_failovers_total{shard="s1"}`:                   "after the kill",
		`svqact_cluster_rollouts_total{outcome="completed"}`:           "(the repaired rollout completed)",
		`svqact_cluster_rollouts_total{outcome="failed"}`:              "(the first rollout halted on the killed replica)",
		`svqact_cluster_mixed_generation_answers_total`:                "(the halted rollout left mixed generations)",
		`svqact_cluster_admission_rejected_total{reason="queue_full"}`: "(the overload burst was shed)",
	} {
		if err := positive(m, why, series); err != nil {
			return "", err
		}
	}
	return "failover, shard loss, recovery, overload shed, rolling swap", nil
}
