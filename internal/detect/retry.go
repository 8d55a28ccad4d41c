package detect

import (
	"context"
	"math"
	"math/rand/v2"
	"time"
)

// RetryConfig tunes retrying of failed model invocations.
type RetryConfig struct {
	// Attempts is the total number of invocations tried, including the
	// first; values below 1 behave like 1 (no retry).
	Attempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. Full jitter in [0.5, 1.5)x is applied
	// so synchronised callers do not retry in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryConfig is the serving default: three attempts with a short
// exponential backoff.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// backoff returns the jittered delay before retry number retry (0-based):
// BaseDelay doubled once per retry while below MaxDelay, then capped there.
// With no MaxDelay it saturates at the longest delay the jitter cannot
// overflow, instead of wrapping.
func (c RetryConfig) backoff(retry int) time.Duration {
	limit := time.Duration(math.MaxInt64 / 2)
	if c.MaxDelay > 0 {
		limit = min(c.MaxDelay, limit)
	}
	d := c.BaseDelay
	for ; retry > 0 && d > 0 && d < limit; retry-- {
		d *= 2
	}
	if d = min(d, limit); d <= 0 {
		return 0
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Retry invokes op with increasing attempt numbers until it succeeds, fails
// permanently (IsTransient false), runs out of attempts, or ctx ends — before
// an attempt or during the jittered exponential backoff between attempts. It
// returns op's last error, or ctx.Err() when the context ended first.
func Retry(ctx context.Context, cfg RetryConfig, op func(attempt int) error) error {
	attempts := max(cfg.Attempts, 1)
	var err error
	for a := 0; a < attempts; a++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(a); err == nil || !IsTransient(err) {
			return err
		}
		if a == attempts-1 {
			break
		}
		if d := cfg.backoff(a); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return err
}
