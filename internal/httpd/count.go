package httpd

import (
	"math"
	"time"
)

// MaxCount is the largest whole count of unit a time.Duration holds.
func MaxCount(unit time.Duration) int64 { return math.MaxInt64 / int64(unit) }

// ToDuration converts a client-supplied count of unit (time.Millisecond,
// time.Second), such as budget_ms, drain_wait_ms or a Retry-After header's
// seconds, to a time.Duration and reports whether the count is in
// range: zero, or from one nanosecond up to MaxCount(unit). A negative
// count, a NaN, a positive count under one nanosecond (it would truncate to
// zero, which callers read as "none") and one past MaxCount (it would wrap
// to a negative Duration) are out of range; a request field out of range
// is a 400 naming the range, a header saturates. The product is taken in
// the count's own type, so an integer count converts exactly.
func ToDuration[C ~int | ~int64 | ~float64](n C, unit time.Duration) (time.Duration, bool) {
	if n == 0 {
		return 0, true
	}
	if !(n > 0) || float64(n) > float64(MaxCount(unit)) {
		return 0, false
	}
	d := time.Duration(n * C(unit))
	return d, d > 0
}
