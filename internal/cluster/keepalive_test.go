package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHTTPBackendReusesConnections: the coordinator's hop to a shard keeps
// its connections alive. With the default client, as cmd/coordinator builds
// its backends, 100 sequential queries open one connection, and two callers
// querying concurrently open at most two in all: the default transport's
// two idle connections per host cover them. The callers' first queries are
// held until both are in flight, so the second connection is opened before
// either caller comes back; otherwise the transport may dial a spare while
// the first connection is on its way back to the pool, and that ramp-up
// race, not the steady state, would decide the count.
func TestHTTPBackendReusesConnections(t *testing.T) {
	var opened, arrived atomic.Int64
	var held atomic.Bool
	release := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if held.Load() {
			if arrived.Add(1) == 2 {
				close(release)
			}
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"generation":3,"candidates":2,"sequences":[`+
			`{"video":"v0","start_clip":4,"end_clip":9,"score":1.5,"lower":1.5,"upper":1.5,"exact":true},`+
			`{"video":"v1","start_clip":0,"end_clip":2,"score":0.75,"lower":0.5,"upper":0.9}],`+
			`"truncated":false,"residual_upper":0.4}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	b := NewHTTPBackend("s0", srv.URL, nil)
	query := func() {
		resp, err := b.Query(context.Background(), Request{SQL: "SELECT 1", K: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if len(resp.Sequences) != 2 || resp.Generation != 3 {
			t.Errorf("decoded %+v", resp)
		}
	}
	for i := 0; i < 100; i++ {
		query()
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("100 sequential queries opened %d connections, want 1", n)
	}

	held.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				query()
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n > 2 {
		t.Fatalf("two concurrent callers opened %d connections in all, want at most 2", n)
	}
}
