package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The coordinator's request bodies cross the same trust boundary as
// cmd/serve's and go through the same internal/httpd front: a size limit,
// JSON errors, and panic recovery. Run the fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzCoordinatorBody$' ./internal/cluster

// TestHandlerBodyLimit413: a body over the limit is refused with a JSON 413
// on both query routes, instead of being read in full.
func TestHandlerBodyLimit413(t *testing.T) {
	c, h := fuzzCoordinator(t)
	huge := `{"sql": "` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/query", "/query/batch"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		var body struct {
			Error string `json:"error"`
		}
		if rr.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rr.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Errorf("%s: status %d body %.200s, want 413 with a JSON error", path, rr.Code, rr.Body)
		}
	}
	if got := c.Admission().Admitted; got != 0 {
		t.Errorf("oversized bodies reached the admission gate %d times", got)
	}
}

// TestHandlerExposesPanics: the coordinator's recovery middleware counts on
// /metrics like cmd/serve's.
func TestHandlerExposesPanics(t *testing.T) {
	_, h := fuzzCoordinator(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "# TYPE svqact_panics_total counter") {
		t.Errorf("/metrics lacks svqact_panics_total:\n%s", rr.Body)
	}
}

// coordinatorStatus is every status the coordinator's /query and
// /query/batch may answer a POST with: 500 is always a bug.
var coordinatorStatus = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusMethodNotAllowed: true,
	http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
	http.StatusServiceUnavailable: true,
}

// fuzzCoordinator is a one-shard coordinator over an in-process backend.
func fuzzCoordinator(t testing.TB) (*Coordinator, http.Handler) {
	shardIxs, _ := buildWorld(t, 1)
	c, err := New(localShards(shardIxs), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Handler()
}

func FuzzCoordinatorBody(f *testing.F) {
	for _, sql := range []string{rankedSQL, rankedSQLK(1), "SELECT nonsense",
		`SELECT clipID FROM (PROCESS repo PRODUCE clipID, act USING ActionRecognizer) WHERE act='jumping'`} {
		q, _ := json.Marshal(map[string]string{"sql": sql})
		b, _ := json.Marshal(map[string][]string{"queries": {sql, sql}})
		f.Add(q)
		f.Add(b)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"sql": 7}`))
	f.Add([]byte(`{"queries": []}`))
	f.Add([]byte(`{"queries": "x"}`))
	c, h := fuzzCoordinator(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/query/batch"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if n := c.panics.Value(); n != 0 {
				t.Fatalf("%d handler panics; last input %q to %s: %s", n, body, path, rr.Body)
			}
			if !coordinatorStatus[rr.Code] {
				t.Fatalf("%s: status %d is outside the documented map for %q: %s", path, rr.Code, body, rr.Body)
			}
			if !json.Valid(rr.Body.Bytes()) {
				t.Fatalf("%s: status %d body is not JSON for %q: %s", path, rr.Code, body, rr.Body)
			}
		}
	})
}
