// Package httpd is the serving front both HTTP binaries share: the
// admission Gate, the request front every query route goes through (query
// ID and trace minting, body decoding, JSON answers, 429 shedding, panic
// recovery, trace retention) and the listen-and-drain loop. What a route
// computes, and how its own errors map to statuses, stays with its package
// (internal/server, internal/cluster).
package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os/signal"
	"regexp"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"svqact/internal/obs"
)

// ErrorBody is the JSON body of an error answer the front writes itself.
type ErrorBody struct {
	Error   string `json:"error"`
	QueryID string `json:"query_id,omitempty"`
}

// WriteJSON answers with status and v encoded as JSON (encoding/json's
// Encoder output: the document and a newline).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	WriteAppended(w, status, func(dst []byte) ([]byte, error) {
		buf := bytes.NewBuffer(dst)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// bodies pools response buffers; one larger than maxPooledBody is left to
// the collector rather than kept.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// encodeFailures counts answers whose body could not be encoded, process
// wide: every registry the front is registered with exposes the same count.
var encodeFailures obs.Counter

// EncodeFailures registers the counter of answers WriteJSON and
// WriteAppended turned into 500s because their body did not encode.
func EncodeFailures(reg *obs.Registry) {
	reg.AttachCounter("svqact_response_encode_failures_total",
		"Answers replaced by a 500 because their JSON body failed to encode.", &encodeFailures)
}

// WriteAppended answers with status and the JSON body appendBody appends
// to a pooled buffer, sent in one Write with its Content-Length. The body
// is complete before anything is committed: when appendBody fails, the
// answer is a JSON 500 naming the error instead, and is counted.
func WriteAppended(w http.ResponseWriter, status int, appendBody func(dst []byte) ([]byte, error)) {
	buf := bodies.Get().(*[]byte)
	body, err := appendBody((*buf)[:0])
	if err != nil {
		encodeFailures.Inc()
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorBody{Error: "encoding the response: " + err.Error(), QueryID: w.Header().Get("X-Query-ID")})
		body = append(body, '\n')
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if err == nil && cap(body) <= maxPooledBody {
		*buf = body[:0]
		bodies.Put(buf)
	}
}

// queryIDRe is the shape of IDs minted by obs.NewQueryID; only inbound
// X-Query-ID headers matching it are adopted for cross-tier correlation.
var queryIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// Mint starts a request's trace: it adopts a well-formed inbound X-Query-ID
// (a coordinator fanning out to a shard, or a client correlating its own
// logs) or mints a fresh one, echoes it in the X-Query-ID response header,
// and records the caller's span from X-SVQ-Parent-Span, so a trace on one
// tier can be correlated with the span on the tier above that requested it.
func Mint(w http.ResponseWriter, r *http.Request) *obs.Trace {
	qid := r.Header.Get("X-Query-ID")
	if !queryIDRe.MatchString(qid) {
		qid = obs.NewQueryID()
	}
	w.Header().Set("X-Query-ID", qid)
	trace := obs.NewTrace(qid)
	if ps := r.Header.Get("X-SVQ-Parent-Span"); obs.ValidSpanRef(ps) {
		trace.SetRemoteParent(ps)
	}
	return trace
}

// DecodeBody reads a POSTed JSON request body of at most limit bytes into
// v. When it returns false it has answered the request: 405 for another
// method, 413 for a body over the limit, 400 for one that is not one JSON
// document of v's shape (only whitespace may follow it). The error body
// carries the query ID of the trace in r's context, when there is one.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	status, msg := http.StatusMethodNotAllowed, "POST only"
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		dec := json.NewDecoder(r.Body)
		err := dec.Decode(v)
		if err == nil {
			if _, err = dec.Token(); err == io.EOF {
				return true
			}
			if err == nil {
				err = errors.New("data after the JSON document")
			}
		}
		status, msg = http.StatusBadRequest, "invalid JSON: "+err.Error()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, msg = http.StatusRequestEntityTooLarge, err.Error()
		}
	}
	WriteJSON(w, status, ErrorBody{Error: msg, QueryID: obs.TraceFrom(r.Context()).ID()})
	return false
}

// Shed answers a request the gate turned away: 429 with Retry-After in
// whole seconds, rounded up.
func Shed(w http.ResponseWriter, over *OverloadError) {
	w.Header().Set("Retry-After", strconv.Itoa(over.RetryAfterSeconds()))
	WriteJSON(w, http.StatusTooManyRequests, ErrorBody{Error: over.Error()})
}

// Panics registers the counter Recover bumps.
func Panics(reg *obs.Registry) *obs.Counter {
	return reg.Counter("svqact_panics_total", "Handler panics contained by the recovery middleware.")
}

// Recover converts handler panics into JSON 500s with a logged stack and a
// bumped panics counter, keeping one poisoned request from tearing down the
// connection. Panics raised by the net/http machinery itself to abort a
// connection are re-raised.
func Recover(log *slog.Logger, panics *obs.Counter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			panics.Inc()
			log.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best-effort: if the handler already wrote, this is a no-op.
			WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: fmt.Sprintf("internal error: %v", rec)})
		}()
		next.ServeHTTP(w, r)
	})
}

// OfferTrace hands a finished query's trace to the retained store and emits
// the one-line slow/degraded-query log record when it is kept for cause
// (anything but routine sampling).
func OfferTrace(store *obs.TraceStore, log *slog.Logger, snap *obs.TraceSnapshot, sql, outcome string) {
	if snap == nil {
		return
	}
	reason, retained := store.Offer(snap, obs.TraceMeta{SQL: sql, Outcome: outcome})
	if retained && reason != "sampled" {
		log.Warn("trace retained", "trace_id", snap.QueryID, "reason", reason,
			"outcome", outcome, "duration_ms", snap.DurationMS, "sql_digest", obs.SQLDigest(sql))
	}
}

// Serve listens on hs.Addr, logs "<name> listening" with the bound address,
// and serves until ctx ends or the process gets SIGTERM or SIGINT. It then
// stops accepting and waits up to drain for in-flight requests; a drain that
// does not finish closes the remaining connections and is an error. A second
// signal during the drain kills the process.
func Serve(ctx context.Context, name string, hs *http.Server, drain time.Duration, log *slog.Logger) error {
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		return err
	}
	log.Info(name+" listening", "addr", ln.Addr().String())
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down: draining in-flight requests", "max_wait", drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Error("drain incomplete", "error", err.Error())
		_ = hs.Close()
		return err
	}
	log.Info("shutdown complete")
	return nil
}
