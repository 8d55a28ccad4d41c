package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/sqlq"
	"svqact/internal/stmt"
	"svqact/internal/testenv"
)

// servedBatch posts sql to /query/batch at the given worker count and
// returns the answer, whose status must be want.
func servedBatch(t *testing.T, s *Server, sql string, workers, want int) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(BatchRequest{SQL: sql, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body)))
	if rr.Code != want {
		t.Fatalf("status = %d, want %d: %s", rr.Code, want, rr.Body)
	}
	if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(rr.Body.Len()) {
		t.Errorf("Content-Length = %q for a %d-byte body", cl, rr.Body.Len())
	}
	return rr
}

// roundTrips checks a served body against encoding/json: decoded into a
// Resp (BatchResponse or QueryResponse) and encoded again, it must come back
// byte for byte.
func roundTrips[Resp any](t *testing.T, body []byte) {
	t.Helper()
	var resp Resp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body does not decode: %v: %s", err, body)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	if got := again.Bytes(); !bytes.Equal(got, body) {
		i := 0
		for i < len(got) && i < len(body) && got[i] == body[i] {
			i++
		}
		t.Fatalf("served body differs from its re-encoding at byte %d:\nserved  %q\nencoded %q",
			i, body[max(0, i-80):min(len(body), i+80)], got[max(0, i-80):min(len(got), i+80)])
	}
}

// TestBatchBodyRoundTrips: every served /query/batch body is what
// encoding/json writes for the response it decodes to, across worker
// counts, with cascades on and off, under transient faults, and for a
// batch the deadline cut short.
func TestBatchBodyRoundTrips(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	extended := `SELECT MERGE(clipID) AS s FROM (PROCESS q5 PRODUCE clipID) WHERE (act='volleyball' OR act='blowing_leaves') AND obj.include('person', 'tree')`
	for _, c := range []struct {
		name string
		cfg  Config
		sqls []string
	}{
		{"plain", Config{}, []string{batchSQL, extended}},
		{"cascade", Config{Cascade: true}, []string{batchSQL, extended}},
		{"fault-transient", Config{Fault: &detect.FaultConfig{TransientRate: 0.2, Seed: 7}}, []string{batchSQL}},
		{"cascade-fault-transient", Config{Cascade: true, Fault: &detect.FaultConfig{TransientRate: 0.2, Seed: 7}, FailureBudget: 0.01}, []string{batchSQL}},
	} {
		c.cfg.Scale, c.cfg.Seed, c.cfg.Logger = 0.05, 42, quiet
		s := New(c.cfg)
		for _, workers := range []int{1, 2, 4} {
			for i, sql := range c.sqls {
				t.Run(fmt.Sprintf("%s/workers=%d/sql=%d", c.name, workers, i), func(t *testing.T) {
					roundTrips[BatchResponse](t, servedBatch(t, s, sql, workers, http.StatusOK).Body.Bytes())
				})
			}
		}
	}
	t.Run("cut-short", func(t *testing.T) {
		s := New(Config{Scale: 0.05, Seed: 42, Logger: quiet, QueryTimeout: 30 * time.Millisecond,
			Fault: &detect.FaultConfig{SpikeRate: 1, SpikeDelay: time.Millisecond, Seed: 7}})
		rr := servedBatch(t, s, batchSQL, 1, http.StatusGatewayTimeout)
		roundTrips[BatchResponse](t, rr.Body.Bytes())
		var resp BatchResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Error == "" {
			t.Errorf("a cut-short batch must name its error: %v %s", err, rr.Body)
		}
	})
}

// fill sets every exported member v reaches to random values, with zero
// values often enough that every omitempty is taken both ways.
func fill(r *rand.Rand, v reflect.Value, depth int) {
	strs := []string{"", "q5", "yt-q5-001", "<&>\u2028\"\\\n", "bad\xffutf8", "\u00e9"}
	floats := []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, 1e21, 5e-324, 123.456, -2.5}
	switch v.Kind() {
	case reflect.String:
		v.SetString(strs[r.Intn(len(strs))])
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 1, -3, 412, math.MaxInt64}[r.Intn(5)])
	case reflect.Float64:
		v.SetFloat(floats[r.Intn(len(floats))])
	case reflect.Interface:
		if x := []any{"s", 3, 2.5, true, nil, int64(7)}[r.Intn(6)]; x != nil {
			v.Set(reflect.ValueOf(x))
		}
	case reflect.Pointer:
		if depth > 0 && r.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(r, v.Elem(), depth-1)
		}
	case reflect.Slice:
		if depth > 0 && r.Intn(4) > 0 {
			n := r.Intn(4)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(r, v.Index(i), depth-1)
			}
		}
	case reflect.Map:
		if depth > 0 && r.Intn(2) > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for n := r.Intn(3); n > 0; n-- {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(r, k, depth-1)
				fill(r, e, depth-1)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(r, v.Field(i), depth)
			}
		}
	}
}

// TestBatchAppendMatchesMarshal holds the hand-written body to the struct
// tags: on random responses reaching every member (plan blocks, tiers,
// sequences, snapshot traces), appendJSON writes encoding/json's bytes.
func TestBatchAppendMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var resp BatchResponse
		fill(r, reflect.ValueOf(&resp).Elem(), 4)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		got, err := resp.appendJSON([]byte("x"))
		if err != nil || !bytes.Equal(got, append([]byte("x"), want.Bytes()...)) {
			t.Fatalf("response %d: appendJSON (%v)\n%s\nencoding/json\n%s", i, err, got[1:], want.Bytes())
		}
	}
	resp := BatchResponse{Videos: []BatchVideo{{Sequences: []Sequence{{Score: math.NaN()}}}}}
	if _, err := resp.appendJSON(nil); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("a NaN score must fail the body as encoding/json does, got %v", err)
	}
}

// fleetBody runs sql as the handler does — a traced fleet with per-video
// traces, at two workers — and lays out its response.
func fleetBody(tb testing.TB, s *Server, sql string) *BatchResponse {
	tb.Helper()
	st, err := sqlq.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := st.Plan()
	if err != nil {
		tb.Fatal(err)
	}
	trace := obs.NewTrace(obs.NewQueryID())
	ctx := obs.WithTrace(context.Background(), trace)
	mode, fr, err := stmt.ExecuteFleet(ctx, p, "", s.env(), core.FleetOptions{Workers: 2, PerVideoTrace: true})
	if err != nil {
		tb.Fatal(err)
	}
	resp := newBatchResponse(fr, time.Millisecond)
	resp.QueryID, resp.Source, resp.Mode, resp.Workers, resp.Trace = trace.ID(), p.Source, mode.String(), 2, trace.Snapshot()
	return resp
}

// TestBatchEncodeAllocsSteadyState: writing a served batch body — plan
// report, sequences and every video's live trace — into a warm buffer
// allocates nothing.
func TestBatchEncodeAllocsSteadyState(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	resp := fleetBody(t, New(Config{Scale: 0.05, Seed: 42, Cascade: true}), batchSQL)
	buf, err := resp.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	roundTrips[BatchResponse](t, buf)
	if n := testing.AllocsPerRun(100, func() { buf, _ = resp.appendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("appending a batch body allocates %v times, want 0", n)
	}
}
