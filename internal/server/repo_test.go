package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"svqact/internal/rank"
	"svqact/internal/store"
	"svqact/internal/video"
)

const repoSQL = `SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='jumping' AND obj.include('car')
ORDER BY RANK(act, obj) LIMIT 3`

// buildRepoDir materialises a small two-member repository on disk.
func buildRepoDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, name := range []string{"alpha", "beta"} {
		ix := &rank.Index{
			Name: name, NumClips: 30,
			Objects: map[string]*rank.TypeIndex{},
			Actions: map[string]*rank.TypeIndex{},
		}
		mk := func(typ string) *rank.TypeIndex {
			var entries []store.Entry
			for c := 0; c < 30; c++ {
				entries = append(entries, store.Entry{Clip: c, Score: float64(1 + (c*7+len(typ))%13)})
			}
			tbl, err := store.NewMemTable(typ, entries)
			if err != nil {
				t.Fatal(err)
			}
			seqs := video.NewIntervalSet(video.Interval{Start: 2, End: 5}, video.Interval{Start: 10, End: 14})
			return &rank.TypeIndex{Table: tbl, Seqs: seqs}
		}
		ix.Objects["car"] = mk("car")
		ix.Actions["jumping"] = mk("jumping")
		if err := repo.Add(ix); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRepoServingAndReload(t *testing.T) {
	dir := buildRepoDir(t)
	srv := New(Config{Scale: 0.05, Seed: 1, RepoDir: dir})
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func(t *testing.T) (int, QueryResponse) {
		t.Helper()
		resp, body := post(t, ts.URL+"/query", QueryRequest{SQL: repoSQL})
		var qr QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("bad response %s: %v", body, err)
			}
		}
		return resp.StatusCode, qr
	}

	status, qr := query(t)
	if status != http.StatusOK {
		t.Fatalf("query status = %d", status)
	}
	if qr.Mode != "RVAQ" || len(qr.Sequences) == 0 {
		t.Fatalf("mode %q with %d sequences", qr.Mode, len(qr.Sequences))
	}
	for _, seq := range qr.Sequences {
		if seq.Video == "" {
			t.Errorf("sequence missing member video attribution: %+v", seq)
		}
	}

	// Health reports the loaded repository.
	h := srv.Health()
	if h.Repo == nil || h.Repo.Videos != 2 || h.Repo.Generation == 0 || h.Repo.Failed {
		t.Fatalf("health repo = %+v", h.Repo)
	}

	// Corrupt one member: the reload must be rejected, the old repository
	// must keep serving, and the corruption must be counted.
	tblPath := ""
	filepath.WalkDir(filepath.Join(dir, "beta"), func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Base(p) == "tables.pack" && tblPath == "" {
			tblPath = p
		}
		return nil
	})
	if tblPath == "" {
		t.Fatal("no table pack found")
	}
	orig, err := os.ReadFile(tblPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), orig...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(tblPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/repo/reload", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload of corrupt repo: status %d, body %s", resp.StatusCode, body)
	}
	if status, _ := query(t); status != http.StatusOK {
		t.Fatalf("old generation stopped serving after failed reload: %d", status)
	}
	if h := srv.Health(); h.Repo == nil || !h.Repo.Failed {
		t.Fatal("failed reload not reflected in health")
	}
	if got := srv.repoCorruption.Value(); got != 1 {
		t.Errorf("corruption counter = %d, want 1", got)
	}

	// Repair and reload: recovery succeeds and is counted.
	if err := os.WriteFile(tblPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/repo/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after repair: status %d, body %s", resp.StatusCode, body)
	}
	if got := srv.repoRecoveries.Value(); got != 1 {
		t.Errorf("recovery counter = %d, want 1", got)
	}
	if status, _ := query(t); status != http.StatusOK {
		t.Fatalf("query after recovery: %d", status)
	}

	// /repo/status mirrors the health section.
	sresp, sbody := get(t, ts.URL+"/repo/status")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("/repo/status: %d %s", sresp.StatusCode, sbody)
	}
}

func TestRepoRoutesWithoutRepo(t *testing.T) {
	srv := New(Config{Scale: 0.05, Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := post(t, ts.URL+"/repo/reload", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("reload without -repo: status %d", resp.StatusCode)
	}
	resp2, _ := get(t, ts.URL+"/repo/status")
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("status without -repo: status %d", resp2.StatusCode)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
