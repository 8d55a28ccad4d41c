package server

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"strings"
	"testing"
)

// Regenerate only when the svqact_detect_* surface is meant to move:
// go test ./internal/server -run DetectExposition -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/server/testdata/*.golden from the current code")

// detectExposition renders the svqact_detect_* part of a server's /metrics
// after one query, values stripped: the # HELP and # TYPE lines and every
// series' name and label set.
func detectExposition(t *testing.T, cfg Config) string {
	t.Helper()
	s := New(cfg)
	if rr := postQuery(s.Handler(), `{"sql": "`+strings.ReplaceAll(tierQuerySQL, "\n", " ")+`"}`); rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body)
	}
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP svqact_detect_"), strings.HasPrefix(line, "# TYPE svqact_detect_"):
			out.WriteString(line + "\n")
		case strings.HasPrefix(line, "svqact_detect_"):
			out.WriteString(line[:strings.LastIndexByte(line, ' ')] + "\n")
		}
	}
	return out.String()
}

// TestDetectExpositionGolden pins the svqact_detect_* families byte for byte
// — names, help text, types and label sets — for a plain and a cascade
// server. A plain model is a one-tier chain and must expose no
// svqact_detect_tier_* series.
func TestDetectExpositionGolden(t *testing.T) {
	plain := detectExposition(t, Config{Scale: 0.05, Seed: 42})
	if strings.Contains(plain, "svqact_detect_tier_") {
		t.Errorf("a non-cascade server exposes tier series:\n%s", plain)
	}
	got := "== plain ==\n" + plain + "== cascade ==\n" + detectExposition(t, Config{Scale: 0.05, Seed: 42, Cascade: true})
	const path = "testdata/detect_exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("svqact_detect_* exposition moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
