package layers

import (
	"math"
	"testing"
	"time"
)

func TestBudgetSubtractsChildrenAndSums(t *testing.T) {
	rec := NewRecorder()
	t0 := time.Now()
	for req := 0; req < 3; req++ {
		root := rec.Add("http.roundtrip", 0, req, t0, 10*time.Millisecond)
		h := rec.Add("server.handler", root, req, t0, 8*time.Millisecond)
		rec.Add("sqlq.parse", h, req, t0, 1*time.Millisecond)
		rec.Add("core.run", h, req, t0, 5*time.Millisecond)
		rec.Add("server.encode", h, req, t0, 500*time.Microsecond)
	}
	// A child measured longer than its parent gives the parent a negative
	// self time, which cancels against the others in the mean.
	odd := rec.Add("http.roundtrip", 0, 3, t0, 10*time.Millisecond)
	rec.Add("server.handler", odd, 3, t0, 12*time.Millisecond)

	spans := rec.Spans()
	self := SelfTimes(spans)
	if self[1] != 2*time.Millisecond || self[2] != 1500*time.Microsecond || self[4] != 5*time.Millisecond {
		t.Errorf("self times of request 0: root %v handler %v run %v", self[1], self[2], self[4])
	}
	if self[odd] != -2*time.Millisecond {
		t.Errorf("overrun parent has self time %v, want -2ms", self[odd])
	}

	b := NewBudget(spans[:15], map[string]string{"http.roundtrip": "http.hop", "server.handler": "server.self"})
	if b.Root != "http.roundtrip" || b.TotalMS != 10 {
		t.Fatalf("budget root %q total %v", b.Root, b.TotalMS)
	}
	want := map[string]float64{"http.hop": 2, "server.self": 1.5, "sqlq.parse": 1, "core.run": 5, "server.encode": 0.5}
	for _, r := range b.Rows {
		if math.Abs(r.MeanMS-want[r.Name]) > 1e-9 || math.Abs(r.MedianMS-want[r.Name]) > 1e-9 || r.PerRequest != 1 {
			t.Errorf("row %s = %v (median %v) x%v, want %v x1", r.Name, r.MeanMS, r.MedianMS, r.PerRequest, want[r.Name])
		}
		delete(want, r.Name)
	}
	if len(want) != 0 {
		t.Errorf("rows missing: %v", want)
	}
	if math.Abs(b.Sum()-10) > 1e-9 || math.Abs(b.ResidualRatio()) > 1e-9 {
		t.Errorf("rows sum to %v of 10, residual %v", b.Sum(), b.ResidualRatio())
	}
	// With the overrun request in, the hop row averages (2+2+2-2)/4 and
	// the rows still add up to the round trips' mean.
	over := NewBudget(spans, nil)
	if math.Abs(over.ResidualRatio()) > 1e-9 {
		t.Errorf("residual with an overrun child = %v, want 0", over.ResidualRatio())
	}
	for _, r := range over.Rows {
		if r.Name == "http.roundtrip" && math.Abs(r.MeanMS-1) > 1e-9 {
			t.Errorf("hop row with an overrun child = %v, want 1", r.MeanMS)
		}
	}
	// A layer whose children outweigh it on average is floored, and the
	// excess is the residual.
	rec2 := NewRecorder()
	r2 := rec2.Add("http.roundtrip", 0, 0, t0, 10*time.Millisecond)
	rec2.Add("server.handler", r2, 0, t0, 11*time.Millisecond)
	if got := NewBudget(rec2.Spans(), nil).ResidualRatio(); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("residual of a floored row = %v, want -0.1", got)
	}
}
