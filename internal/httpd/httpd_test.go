package httpd

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"svqact/internal/obs"
)

// TestRecoverReturnsJSON500: a panicking handler produces a JSON 500, a log
// line with the stack, and a bumped panics counter — and the next request
// is served normally.
func TestRecoverReturnsJSON500(t *testing.T) {
	var logged strings.Builder
	panics := Panics(obs.NewRegistry())
	calls := 0
	h := Recover(slog.New(slog.NewTextHandler(&logged, nil)), panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body not JSON: %s", rr.Body)
	}
	if !strings.Contains(body.Error, "boom") {
		t.Errorf("error = %q, want the panic value", body.Error)
	}
	if panics.Value() != 1 {
		t.Errorf("panics counter = %d", panics.Value())
	}
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "goroutine") {
		t.Errorf("panic not logged with stack: %q", out)
	}

	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rr2.Code != http.StatusOK {
		t.Errorf("request after panic: status = %d", rr2.Code)
	}
}

// TestRecoverReraisesAbortHandler: http.ErrAbortHandler keeps its net/http
// meaning and passes through the middleware uncounted.
func TestRecoverReraisesAbortHandler(t *testing.T) {
	panics := Panics(obs.NewRegistry())
	h := Recover(slog.New(slog.NewTextHandler(io.Discard, nil)), panics, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler must be re-raised, not swallowed")
		}
		if panics.Value() != 0 {
			t.Error("ErrAbortHandler must not count as a handler panic")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/query", nil))
}

// TestShedRoundsRetryAfterUp: Retry-After is never shorter than the wait
// the client was told about, and never 0.
func TestShedRoundsRetryAfterUp(t *testing.T) {
	for wait, want := range map[time.Duration]string{
		0: "1", 50 * time.Millisecond: "1", time.Second: "1",
		1500 * time.Millisecond: "2", 2 * time.Second: "2",
	} {
		rr := httptest.NewRecorder()
		Shed(rr, &OverloadError{Reason: "saturated", RetryAfter: wait})
		if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") != want {
			t.Errorf("wait %v: status %d Retry-After %q, want 429 %q", wait, rr.Code, rr.Header().Get("Retry-After"), want)
		}
		var body ErrorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "overloaded (saturated)") {
			t.Errorf("wait %v: body %s", wait, rr.Body)
		}
	}
}

// TestMintAdoptsOrMints: a well-formed inbound X-Query-ID and parent span
// are adopted; anything else gets a fresh ID. Either way the response
// header echoes the trace's ID.
func TestMintAdoptsOrMints(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/query", nil)
	r.Header.Set("X-Query-ID", "00c0ffee00c0ffee")
	r.Header.Set("X-SVQ-Parent-Span", "coord/3")
	rr := httptest.NewRecorder()
	tr := Mint(rr, r)
	if tr.ID() != "00c0ffee00c0ffee" || rr.Header().Get("X-Query-ID") != tr.ID() {
		t.Errorf("adopted id %q, header %q", tr.ID(), rr.Header().Get("X-Query-ID"))
	}
	if got := tr.Snapshot().ParentSpan; got != "coord/3" {
		t.Errorf("parent span = %q, want coord/3", got)
	}

	r = httptest.NewRequest(http.MethodPost, "/query", nil)
	r.Header.Set("X-Query-ID", "not an id")
	r.Header.Set("X-SVQ-Parent-Span", "bad span!")
	rr = httptest.NewRecorder()
	tr = Mint(rr, r)
	if tr.ID() == "not an id" || !queryIDRe.MatchString(tr.ID()) || rr.Header().Get("X-Query-ID") != tr.ID() {
		t.Errorf("minted id %q, header %q", tr.ID(), rr.Header().Get("X-Query-ID"))
	}
	if got := tr.Snapshot().ParentSpan; got != "" {
		t.Errorf("malformed parent span recorded: %q", got)
	}
}

// TestDecodeBody: an oversized body is 413 and a malformed one 400, both as
// JSON carrying the query ID of the request's trace.
func TestDecodeBody(t *testing.T) {
	for body, want := range map[string]int{
		`{"sql": "x"}`: http.StatusOK,
		`{"sql": "` + strings.Repeat("x", 64) + `"}`: http.StatusRequestEntityTooLarge,
		`{"sql": 7}`:                             http.StatusBadRequest,
		`{`:                                      http.StatusBadRequest,
		"{\"sql\": \"x\"} \n\t":                  http.StatusOK,
		`{"sql":"A"}{"sql":"B"}`:                 http.StatusBadRequest,
		`{"sql":"A"} garbage`:                    http.StatusBadRequest,
		`{"sql":"A"}}`:                           http.StatusBadRequest,
		`{"sql":"A"} ` + strings.Repeat(" ", 32): http.StatusRequestEntityTooLarge,
	} {
		r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		r = r.WithContext(obs.WithTrace(r.Context(), obs.NewTrace("0123456789abcdef")))
		rr := httptest.NewRecorder()
		var v struct {
			SQL string `json:"sql"`
		}
		if ok := DecodeBody(rr, r, 32, &v); ok != (want == http.StatusOK) {
			t.Fatalf("%.20q: DecodeBody = %v", body, ok)
		}
		if want == http.StatusOK {
			continue
		}
		var eb ErrorBody
		if rr.Code != want || json.Unmarshal(rr.Body.Bytes(), &eb) != nil || eb.Error == "" || eb.QueryID != "0123456789abcdef" {
			t.Errorf("%.20q: status %d body %s, want %d with a JSON error and the query ID", body, rr.Code, rr.Body, want)
		}
	}
}

// TestServeDrainsInFlight: when Serve's context ends, a request already in
// flight still completes, and Serve returns cleanly once it has.
func TestServeDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	hs := &http.Server{Addr: "127.0.0.1:0", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	})}
	logR, logW := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, "test server", hs, 5*time.Second, slog.New(slog.NewJSONHandler(logW, nil)))
		logW.Close()
	}()

	lines := bufio.NewScanner(logR)
	if !lines.Scan() {
		t.Fatal("Serve logged nothing")
	}
	var rec struct {
		Msg  string `json:"msg"`
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal(lines.Bytes(), &rec); err != nil || rec.Msg != "test server listening" {
		t.Fatalf("first log line %s, want the listening line", lines.Bytes())
	}

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + rec.Addr + "/")
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-entered
	cancel()
	if !lines.Scan() || !strings.Contains(lines.Text(), "draining in-flight requests") {
		t.Fatalf("log line after cancel %q, want the drain line", lines.Text())
	}
	go func() { // keep the pipe drained
		for lines.Scan() {
		}
	}()
	close(release)
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request answered %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want a clean drain", err)
	}
}

// TestWriteJSONEncodeFailure: a body that does not encode (a NaN field)
// is answered with a counted JSON 500 carrying the query ID, not with the
// intended status and an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	reg := obs.NewRegistry()
	EncodeFailures(reg)
	before := encodeFailures.Value()
	rr := httptest.NewRecorder()
	rr.Header().Set("X-Query-ID", "00f1e2d3c4b5a697")
	WriteJSON(rr, http.StatusOK, struct {
		Score float64 `json:"score"`
	}{math.NaN()})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body not JSON: %q", rr.Body)
	}
	if !strings.Contains(body.Error, "NaN") || body.QueryID != "00f1e2d3c4b5a697" {
		t.Errorf("body = %+v, want the encoding error and the query ID", body)
	}
	if got := encodeFailures.Value() - before; got != 1 {
		t.Errorf("encode failures counted %d times, want 1", got)
	}
	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil || !strings.Contains(exp.String(), "svqact_response_encode_failures_total") {
		t.Errorf("registry does not expose the encode failure count (%v):\n%s", err, exp.String())
	}
}

// TestWriteJSONMatchesEncoder: the pooled answer is byte for byte what
// encoding/json's Encoder wrote, with its length declared.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	v := map[string]any{"b": []int{1, 2}, "a": "<&>", "c": 1e21}
	var want strings.Builder
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // reuse a pooled buffer
		rr := httptest.NewRecorder()
		WriteJSON(rr, http.StatusTeapot, v)
		if rr.Code != http.StatusTeapot || rr.Body.String() != want.String() {
			t.Fatalf("answer %d %q, want %d %q", rr.Code, rr.Body, http.StatusTeapot, want.String())
		}
		if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length = %q, want %d", cl, want.Len())
		}
	}
}
