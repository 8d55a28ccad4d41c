package httpd

import (
	"math"
	"testing"
	"time"
)

// TestToDurationFieldEdges walks the edges of every client-supplied count
// that becomes a time.Duration: budget_ms (a float of milliseconds on
// /query), drain_wait_ms (an int of milliseconds on POST /rollout) and a
// Retry-After header's seconds (an int64 as strconv.ParseInt saturates it).
func TestToDurationFieldEdges(t *testing.T) {
	const maxMS, maxS = 9223372036854, 9223372036
	type row struct {
		field string
		conv  func() (time.Duration, bool)
		want  time.Duration
		ok    bool
	}
	ms := func(n float64) func() (time.Duration, bool) {
		return func() (time.Duration, bool) { return ToDuration(n, time.Millisecond) }
	}
	intMS := func(n int) func() (time.Duration, bool) {
		return func() (time.Duration, bool) { return ToDuration(n, time.Millisecond) }
	}
	secs := func(n int64) func() (time.Duration, bool) {
		return func() (time.Duration, bool) { return ToDuration(n, time.Second) }
	}
	for _, r := range []row{
		{"budget_ms 0", ms(0), 0, true},
		{"budget_ms -1", ms(-1), 0, false},
		{"budget_ms NaN", ms(math.NaN()), 0, false},
		{"budget_ms 1e-7 (under 1 ns)", ms(1e-7), 0, false},
		{"budget_ms below 1e-6", ms(math.Nextafter(1e-6, 0)), 0, false},
		{"budget_ms 1e-6 (1 ns)", ms(1e-6), time.Nanosecond, true},
		{"budget_ms 2.5", ms(2.5), 2500 * time.Microsecond, true},
		// A float count multiplies in float64: the nearest double to
		// 9223372036854e6 ns, as budget_ms always converted.
		{"budget_ms largest", ms(maxMS), 9223372036853999616, true},
		{"budget_ms largest + 0.5", ms(maxMS + 0.5), 0, false},
		{"budget_ms 1e13", ms(1e13), 0, false},
		{"budget_ms +Inf", ms(math.Inf(1)), 0, false},
		{"drain_wait_ms -1", intMS(-1), 0, false},
		{"drain_wait_ms 0", intMS(0), 0, true},
		{"drain_wait_ms 500", intMS(500), 500 * time.Millisecond, true},
		{"drain_wait_ms largest", intMS(maxMS), maxMS * time.Millisecond, true},
		{"drain_wait_ms largest + 1", intMS(maxMS + 1), 0, false},
		{"drain_wait_ms MaxInt", intMS(math.MaxInt), 0, false},
		{"Retry-After MinInt64", secs(math.MinInt64), 0, false},
		{"Retry-After -1", secs(-1), 0, false},
		{"Retry-After 0", secs(0), 0, true},
		{"Retry-After 1", secs(1), time.Second, true},
		{"Retry-After largest", secs(maxS), maxS * time.Second, true},
		{"Retry-After largest + 1", secs(maxS + 1), 0, false},
		{"Retry-After MaxInt64", secs(math.MaxInt64), 0, false},
	} {
		got, ok := r.conv()
		if got != r.want || ok != r.ok {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", r.field, int64(got), ok, int64(r.want), r.ok)
		}
	}
	if MaxCount(time.Millisecond) != maxMS || MaxCount(time.Second) != maxS {
		t.Errorf("MaxCount = %d ms, %d s; want %d, %d", MaxCount(time.Millisecond), MaxCount(time.Second), maxMS, maxS)
	}
}
