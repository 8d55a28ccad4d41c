package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentInstruments hammers a counter, a gauge and a histogram from
// many goroutines; run under -race this doubles as the data-race check.
func TestConcurrentInstruments(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram([]float64{0.5})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%10) / 10)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	// 0.0 .. 0.9 uniformly: 6 of 10 values are <= 0.5.
	cum, _, _ := h.snapshot()
	if want := uint64(workers * per * 6 / 10); cum[0] != want {
		t.Errorf("bucket le=0.5 = %d, want %d", cum[0], want)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative add = %d, want 5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram(nil)
	for _, v := range []float64{0.002, 0.004, 0.008, 0.016, 0.2} {
		h.Observe(v)
	}
	if h.Min() != 0.002 || h.Max() != 0.2 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 0.045 || m > 0.047 {
		t.Errorf("mean = %v", m)
	}
	if q := h.Quantile(0.5); q < 0.002 || q > 0.016 {
		t.Errorf("p50 = %v out of plausible range", q)
	}
	if q := h.Quantile(1); q != 0.2 {
		t.Errorf("p100 = %v, want the max", q)
	}
	s := h.Summary()
	if !strings.Contains(s, "n=5") || !strings.Contains(s, "p99=") {
		t.Errorf("summary = %q", s)
	}
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 6 {
		t.Errorf("count = %d after ObserveDuration", h.Count())
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds must panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestWritePrometheusGolden pins the exact text exposition rendering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests.", L("kind", "object")).Add(5)
	r.Counter("test_requests_total", "", L("kind", "action")).Add(2)
	r.Gauge("test_queue_depth", "Queue depth.").Set(7)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
# HELP test_latency_seconds_p50 p50 of test_latency_seconds, interpolated from bucket counts.
# TYPE test_latency_seconds_p50 gauge
test_latency_seconds_p50 0.55
# HELP test_latency_seconds_p95 p95 of test_latency_seconds, interpolated from bucket counts.
# TYPE test_latency_seconds_p95 gauge
test_latency_seconds_p95 4.399999999999999
# HELP test_latency_seconds_p99 p99 of test_latency_seconds, interpolated from bucket counts.
# TYPE test_latency_seconds_p99 gauge
test_latency_seconds_p99 4.879999999999999
# HELP test_queue_depth Queue depth.
# TYPE test_queue_depth gauge
test_queue_depth 7
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{kind="action"} 2
test_requests_total{kind="object"} 5
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistryDedupAndAttach(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "")
	b := r.Counter("test_total", "")
	if a != b {
		t.Error("same (name, labels) must return the same counter")
	}
	var ext Counter
	ext.Add(9)
	r.AttachCounter("test_ext_total", "External.", &ext)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "test_ext_total 9") {
		t.Errorf("attached counter not rendered: %s", out.String())
	}
	names := r.MetricNames()
	if len(names) != 2 || names[0] != "test_ext_total" || names[1] != "test_total" {
		t.Errorf("MetricNames = %v", names)
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.Counter("bad-name", "") },
		func() { r.Gauge("", "") },
		func() { r.Counter("ok_total", "", L("bad-label", "v")) },
		func() { r.Counter("ok_total", "", L("__reserved", "v")) },
		func() { r.Counter("no_suffix", "") },
		func() { r.AttachCounter("no_suffix", "", &Counter{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid name must panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegistryPanicsOnTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different type must panic")
		}
	}()
	r.Gauge("test_total", "")
}

func TestValidNames(t *testing.T) {
	for name, want := range map[string]bool{
		"svqact_queries_served_total": true,
		"a:b_c9":                      true,
		"9leading":                    false,
		"has space":                   false,
		"":                            false,
	} {
		if got := ValidMetricName(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, want)
		}
	}
	if ValidLabelName("le:") || ValidLabelName("__x") || !ValidLabelName("kind") {
		t.Error("label name validation wrong")
	}
}
