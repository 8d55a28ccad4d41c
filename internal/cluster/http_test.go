package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svqact/internal/rank"
	"svqact/internal/server"
	"svqact/internal/sqlq"
	"svqact/internal/store"
	"svqact/internal/video"
)

// buildShardRepos splits the test world into n on-disk shard repositories
// and returns their directories plus the monolith ground truth.
func buildShardRepos(t *testing.T, n int) (dirs []string, mono *rank.Index) {
	t.Helper()
	return buildShardReposWith(t, n, func(*rank.Index) {})
}

// buildShardReposWith is buildShardRepos with a hook that may extend each
// member's index (e.g. with vocabulary only that video holds) before it is
// added to the source repository.
func buildShardReposWith(t *testing.T, n int, extend func(*rank.Index)) (dirs []string, mono *rank.Index) {
	t.Helper()
	srcDir := t.TempDir()
	src, err := rank.OpenRepository(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range testMembers {
		ix := memberIndex(t, m, int64(100+i*17))
		extend(ix)
		if err := src.Add(ix); err != nil {
			t.Fatal(err)
		}
	}
	mono, err = src.Merged()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	base := t.TempDir()
	for i := 0; i < n; i++ {
		dirs = append(dirs, filepath.Join(base, fmt.Sprintf("shard%d", i)))
	}
	if err := SplitRepository(srcDir, dirs); err != nil {
		t.Fatal(err)
	}
	return dirs, mono
}

// shardServer boots a repo-backed single-process server for one shard.
func shardServer(t *testing.T, repoDir, shardName string) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Scale: 0.05, Seed: 1, RepoDir: repoDir, ShardName: shardName})
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// The full serving stack: coordinator → HTTPBackend → cmd/serve-style
// repo-backed processes, with replica kill and failover across real HTTP.
func TestHTTPBackendEndToEnd(t *testing.T) {
	dirs, mono := buildShardRepos(t, 2)
	// Shard s1 runs two replica processes over the same shard repository.
	s0r0 := shardServer(t, dirs[0], "s0")
	s1r0 := shardServer(t, dirs[1], "s1")
	s1r1 := shardServer(t, dirs[1], "s1")

	specs := []ShardSpec{
		{Name: "s0", Replicas: []Backend{NewHTTPBackend("s0-r0", s0r0.URL, nil)}},
		{Name: "s1", Replicas: []Backend{
			NewHTTPBackend("s1-r0", s1r0.URL, nil),
			NewHTTPBackend("s1-r1", s1r1.URL, nil)}},
	}
	c, err := New(specs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := monolithTopK(t, mono, rankedSQL)

	// Healthy cluster: exact monolith answer, all shards ok.
	res, err := c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, want)
	if len(res.Partition.OK) != 2 {
		t.Fatalf("partition = %+v", res.Partition)
	}
	for sh, gen := range res.Generations {
		if gen < 1 {
			t.Errorf("shard %s generation = %d, want >= 1", sh, gen)
		}
	}

	// Health probes pass over real HTTP.
	c.ProbeAll(context.Background())
	for _, sh := range c.Status() {
		for _, rep := range sh.Replicas {
			if rep.LastError != "" {
				t.Fatalf("replica %s probe failed: %s", rep.Name, rep.LastError)
			}
		}
	}

	// Kill s1's primary process: the query fails over to the second
	// replica and degrades without losing correctness.
	s1r0.Close()
	res, err = c.TopK(context.Background(), rankedSQL)
	if err != nil {
		t.Fatalf("failover across HTTP should succeed: %v", err)
	}
	assertSameSeqs(t, res.Sequences, want)
	if fmt.Sprint(res.Partition.Degraded) != "[s1]" {
		t.Fatalf("partition after kill = %+v, want s1 degraded", res.Partition)
	}

	// Kill the last s1 replica: whole-shard loss, graceful degradation
	// with the surviving shard's exact answer.
	s1r1.Close()
	res, err = c.TopK(context.Background(), rankedSQL)
	var deg *DegradedError
	if !errors.As(err, &deg) || fmt.Sprint(deg.Failed) != "[s1]" {
		t.Fatalf("err = %v, want DegradedError naming s1", err)
	}
	s0ix, err := rank.OpenRepository(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s0ix.Close()
	s0merged, err := s0ix.Merged()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeqs(t, res.Sequences, monolithTopK(t, s0merged, rankedSQL))
}

// HTTPBackend classifies shard rejections: invalid statements are fatal
// BadRequestError (no failover), transport errors are transient.
func TestHTTPBackendErrorClassification(t *testing.T) {
	dirs, _ := buildShardRepos(t, 1)
	ts := shardServer(t, dirs[0], "s0")
	b := NewHTTPBackend("s0-r0", ts.URL, nil)

	var bad *BadRequestError
	if _, err := b.Query(context.Background(), Request{SQL: "SELECT nonsense"}); !errors.As(err, &bad) {
		t.Fatalf("parse rejection = %v, want BadRequestError", err)
	}
	var rerr *replicaError
	ts.Close()
	if _, err := b.Query(context.Background(), Request{SQL: rankedSQL}); !errors.As(err, &rerr) {
		t.Fatalf("dead process = %v, want transient replicaError", err)
	}
	if err := b.Healthy(context.Background()); err == nil {
		t.Fatal("health probe of dead process should fail")
	}
}

// The coordinator's K override reaches the shard over HTTP: a deeper pull
// returns more sequences than the statement's LIMIT.
func TestHTTPBackendKOverride(t *testing.T) {
	dirs, _ := buildShardRepos(t, 1)
	ts := shardServer(t, dirs[0], "s0")
	b := NewHTTPBackend("s0-r0", ts.URL, nil)

	shallow, err := b.Query(context.Background(), Request{SQL: rankedSQL})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := b.Query(context.Background(), Request{SQL: rankedSQL, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(shallow.Sequences) != 3 || len(deep.Sequences) <= len(shallow.Sequences) {
		t.Fatalf("K override ignored: LIMIT 3 gave %d, K=8 gave %d",
			len(shallow.Sequences), len(deep.Sequences))
	}
	if shallow.Shard != "s0" {
		t.Fatalf("shard attribution = %q, want s0 (X-SVQ-Shard)", shallow.Shard)
	}
}

// A ranked OR-group whose atoms are spread unevenly over the shards: the
// action 'dancing' exists in one video only, so after a 3-way split two
// shards never ingested it. Those shards must still answer the group from
// the atom they do hold ('jumping'); treating the statement as "no
// candidates here" — right for an AND — loses their sequences. Checked
// through both shard surfaces (serve processes over HTTP, LocalBackend)
// against the monolith's RVAQCNF.
func TestShardedORGroupWithPartialVocabulary(t *testing.T) {
	const sql = `SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE (act='jumping' OR act='dancing') AND obj.include('car')
ORDER BY RANK(act, obj) LIMIT 8`
	dirs, mono := buildShardReposWith(t, 3, func(ix *rank.Index) {
		if ix.Name != "vid-i" {
			return
		}
		// vid-i's candidate sequences are [2,4] [7,10] [13,14] [17,21];
		// dancing dominates the second one.
		var entries []store.Entry
		for c := 7; c <= 10; c++ {
			entries = append(entries, store.Entry{Clip: c, Score: 50 + float64(c)})
		}
		tbl, err := store.NewMemTable("dancing", entries)
		if err != nil {
			t.Fatal(err)
		}
		ix.Actions["dancing"] = &rank.TypeIndex{Table: tbl,
			Seqs: video.NewIntervalSet(video.Interval{Start: 7, End: 10})}
	})

	st, err := sqlq.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Plan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rank.RVAQCNF(context.Background(), mono, plan.CNF, plan.K, rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []RankedSeq
	perVideo := map[string]bool{}
	for _, sr := range res.Sequences {
		vid, local := mono.Resolve(sr.Seq.Start)
		want = append(want, RankedSeq{Video: vid, StartClip: local, EndClip: local + sr.Seq.Len() - 1, Score: sr.Score()})
		perVideo[vid] = true
	}
	if len(want) != 8 || want[0].Video != "vid-i" || len(perVideo) < 3 {
		t.Fatalf("test world does not exercise the bug: monolith top-8 = %v", keys(want))
	}

	var httpSpecs, localSpecs []ShardSpec
	holders := 0
	for i, dir := range dirs {
		name := fmt.Sprintf("s%d", i)
		httpSpecs = append(httpSpecs, ShardSpec{Name: name,
			Replicas: []Backend{NewHTTPBackend(name+"-r0", shardServer(t, dir, name).URL, nil)}})
		repo, err := rank.OpenRepository(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		merged, err := repo.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if merged.Actions["dancing"] != nil {
			holders++
		}
		localSpecs = append(localSpecs, ShardSpec{Name: name,
			Replicas: []Backend{NewLocalBackend(name+"-r0", 1, merged)}})
	}
	if holders != 1 {
		t.Fatalf("%d shards hold 'dancing', want exactly 1", holders)
	}
	for surface, specs := range map[string][]ShardSpec{"http": httpSpecs, "local": localSpecs} {
		c, err := New(specs, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.TopK(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", surface, err)
		}
		assertSameSeqs(t, got.Sequences, want)
	}

	// A monolith (no shard name) over the same files keeps rejecting the
	// vocabulary it does not hold.
	srv := server.New(server.Config{Scale: 0.05, Seed: 1, RepoDir: dirs[0]})
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := NewHTTPBackend("mono", ts.URL, nil).Query(context.Background(), Request{SQL: sql}); err == nil ||
		!strings.Contains(err.Error(), "not ingested") {
		t.Fatalf("monolith over a partial vocabulary: err = %v, want a not-ingested rejection", err)
	}
}

// TestParseRetryAfter: a replica's Retry-After is seconds or an HTTP date,
// and a count of seconds too large for a Duration saturates instead of
// wrapping into a short or negative wait that would slip under backoff's
// MaxBackoff clamp.
func TestParseRetryAfter(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		header   string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"0", 0, 0},
		{"-1", 0, 0},
		{"2", 2 * time.Second, 2 * time.Second},
		{" 2 ", 2 * time.Second, 2 * time.Second},
		{"soon", 0, 0},
		{now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
		{now.Add(time.Hour).UTC().Format(http.TimeFormat), 58 * time.Minute, time.Hour},
		{"9223372036", 9223372036 * time.Second, 9223372036 * time.Second},
		{"9223372037", math.MaxInt64, math.MaxInt64},
		{"18446744074", math.MaxInt64, math.MaxInt64},
		{"99999999999999999999", math.MaxInt64, math.MaxInt64},
	} {
		if got := parseRetryAfter(tc.header); got < tc.min || got > tc.max {
			t.Errorf("parseRetryAfter(%q) = %v, want within [%v, %v]", tc.header, got, tc.min, tc.max)
		}
	}
}
