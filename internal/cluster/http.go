package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"svqact/internal/httpd"
	"svqact/internal/obs"
)

// HTTPBackend answers shard queries from a cmd/serve -repo process over
// its /query endpoint. It maps the server's JSON contract onto Response
// and classifies failures: 4xx statuses become BadRequestError (fatal, no
// failover), everything else — transport errors, 5xx, malformed bodies —
// is transient and retried.
type HTTPBackend struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPBackend wraps the serve process at baseURL (e.g.
// "http://127.0.0.1:8080"). name defaults to the baseURL host.
func NewHTTPBackend(name, baseURL string, client *http.Client) *HTTPBackend {
	base := strings.TrimRight(baseURL, "/")
	if name == "" {
		name = strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPBackend{name: name, base: base, client: client}
}

func (b *HTTPBackend) Name() string { return b.name }

// httpQueryResponse is the subset of the server's /query body the
// coordinator consumes.
type httpQueryResponse struct {
	Shard      string `json:"-"`
	Generation int    `json:"generation"`
	Candidates int    `json:"candidates"`
	Sequences  []struct {
		Video string  `json:"video"`
		Start int     `json:"start_clip"`
		End   int     `json:"end_clip"`
		Score float64 `json:"score"`
		Lower float64 `json:"lower"`
		Upper float64 `json:"upper"`
		Exact bool    `json:"exact"`
	} `json:"sequences"`
	Truncated     bool               `json:"truncated"`
	ResidualUpper float64            `json:"residual_upper"`
	Trace         *obs.TraceSnapshot `json:"trace"`
	Error         string             `json:"error"`
}

func (b *HTTPBackend) Query(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(map[string]any{"sql": req.SQL, "k": req.K})
	if err != nil {
		return nil, &replicaError{Replica: b.name, Err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, &replicaError{Replica: b.name, Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.QueryID != "" {
		hreq.Header.Set("X-Query-ID", req.QueryID)
	}
	if req.ParentSpan != "" {
		hreq.Header.Set("X-SVQ-Parent-Span", req.ParentSpan)
	}
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return nil, &replicaError{Replica: b.name, Err: err}
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return nil, &replicaError{Replica: b.name, Status: hresp.StatusCode, Err: err}
	}
	var qr httpQueryResponse
	decodeErr := json.Unmarshal(raw, &qr)
	if hresp.StatusCode >= 400 && hresp.StatusCode < 500 && hresp.StatusCode != http.StatusTooManyRequests {
		msg := qr.Error
		if msg == "" {
			msg = fmt.Sprintf("status %d", hresp.StatusCode)
		}
		return nil, &BadRequestError{Msg: fmt.Sprintf("replica %s: %s", b.name, msg)}
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, &replicaError{Replica: b.name, Status: hresp.StatusCode,
			RetryAfter: parseRetryAfter(hresp.Header.Get("Retry-After")),
			Err:        fmt.Errorf("shard returned %q", strings.TrimSpace(firstLine(qr.Error, raw)))}
	}
	if decodeErr != nil {
		return nil, &replicaError{Replica: b.name, Err: fmt.Errorf("malformed shard body: %w", decodeErr)}
	}
	resp := &Response{
		Shard:         headerOr(hresp.Header.Get("X-SVQ-Shard"), b.name),
		Replica:       b.name,
		Generation:    qr.Generation,
		Candidates:    qr.Candidates,
		Truncated:     qr.Truncated,
		ResidualUpper: qr.ResidualUpper,
		Trace:         qr.Trace,
	}
	for _, s := range qr.Sequences {
		resp.Sequences = append(resp.Sequences, RankedSeq{
			Video:     s.Video,
			StartClip: s.Start,
			EndClip:   s.End,
			Score:     s.Score,
			Lower:     s.Lower,
			Upper:     s.Upper,
			Exact:     s.Exact,
		})
	}
	return resp, nil
}

// Healthy probes the serve process's /healthz.
func (b *HTTPBackend) Healthy(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return &replicaError{Replica: b.name, Err: err}
	}
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return &replicaError{Replica: b.name, Err: err}
	}
	defer hresp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<20))
	if hresp.StatusCode != http.StatusOK {
		return &replicaError{Replica: b.name, Status: hresp.StatusCode,
			Err: fmt.Errorf("healthz returned %d", hresp.StatusCode)}
	}
	return nil
}

// repoStatusResponse is the subset of the server's /repo/status and
// /repo/reload bodies the rollout consumes.
type repoStatusResponse struct {
	Generation int    `json:"generation"`
	Error      string `json:"error"`
}

func (b *HTTPBackend) repoCall(ctx context.Context, method, path string) (int, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, b.base+path, nil)
	if err != nil {
		return 0, &replicaError{Replica: b.name, Err: err}
	}
	hresp, err := b.client.Do(hreq)
	if err != nil {
		return 0, &replicaError{Replica: b.name, Err: err}
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if err != nil {
		return 0, &replicaError{Replica: b.name, Status: hresp.StatusCode, Err: err}
	}
	var rs repoStatusResponse
	decodeErr := json.Unmarshal(raw, &rs)
	if hresp.StatusCode != http.StatusOK {
		return 0, &replicaError{Replica: b.name, Status: hresp.StatusCode,
			Err: fmt.Errorf("%s %s returned %q", method, path, strings.TrimSpace(firstLine(rs.Error, raw)))}
	}
	if decodeErr != nil {
		return 0, &replicaError{Replica: b.name, Err: fmt.Errorf("malformed %s body: %w", path, decodeErr)}
	}
	return rs.Generation, nil
}

// Reload triggers the serve process's POST /repo/reload. The server fails
// reload closed: a non-200 answer means the old generation kept serving.
func (b *HTTPBackend) Reload(ctx context.Context) (int, error) {
	return b.repoCall(ctx, http.MethodPost, "/repo/reload")
}

// Generation reads the serving generation from GET /repo/status.
func (b *HTTPBackend) Generation(ctx context.Context) (int, error) {
	return b.repoCall(ctx, http.MethodGet, "/repo/status")
}

// parseRetryAfter parses a Retry-After header value: integer seconds, or
// an HTTP date. 0 means absent or unparsable. A count of seconds too large
// for a Duration saturates at the largest one, so backoff's MaxBackoff
// clamp sees it as huge rather than as a wrapped small or negative value.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	// ParseInt reports an out-of-range count as ErrRange with the value
	// saturated at the int64 limit of its sign.
	if secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		d, ok := httpd.ToDuration(secs, time.Second)
		switch {
		case ok:
			return d
		case secs > 0:
			return math.MaxInt64
		}
		return 0
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func headerOr(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func firstLine(msg string, raw []byte) string {
	if msg != "" {
		return msg
	}
	s := string(raw)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
