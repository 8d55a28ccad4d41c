package scanstat

import (
	"fmt"
	"math"
	"sync"
)

// tables holds the binomial tables the constituents of Naus's approximation
// read at one (w, p): the pmf b and cdf F of Binomial(w, p), and the cdfs F1
// and F2 of Binomial(w-1, p) and Binomial(w-2, p), which the partial
// expectations in Q3 reduce to (sum_{j<=m} j b(j) = w p F1(m-1)). One
// critical-value search builds them once and evaluates Q1, Q2 and Q3 from
// them at every k it visits.
type tables struct {
	b0, b1, b2 *Binom
}

func newTables(w int, p float64) tables {
	// For w < 2 the F2 term of Q3 carries the factor w(w-1) = 0, so any
	// table stands in for the undefined Binomial(w-2, p).
	return tables{NewBinom(w, p), NewBinom(max(w-1, 0), p), NewBinom(max(w-2, 0), p)}
}

// q2 evaluates Q2 (see the exported function) for 0 <= k <= w from the
// Binomial(w, p) table.
func q2(b *Binom, k int) float64 {
	g := 0.0
	for r := 0; r <= k-2; r++ {
		g += b.CDF(r)
	}
	f := b.CDF(k - 1)
	return clampProb(f*f - b.PMF(k)*g)
}

// q3 evaluates Q3 (see the exported function) for 0 <= k <= w. It is capped
// at s2 = q2(t.b0, k): three w-blocks cannot survive more often than two.
func (t tables) q3(k int, s2 float64) float64 {
	b, F, F1, F2 := t.b0.PMF, t.b0.CDF, t.b1.CDF, t.b2.CDF
	w, kf, p := float64(t.b0.N()), float64(k), t.b0.P()
	a1 := 2 * b(k) * F(k-1) * ((kf-1)*F(k-2) - w*p*F1(k-3))
	a2 := 0.5 * b(k) * b(k) *
		((kf-1)*(kf-2)*F(k-3) - 2*(kf-2)*w*p*F1(k-4) + w*(w-1)*p*p*F2(k-5))
	a3, a4 := 0.0, 0.0
	for r := 1; r <= k-1; r++ {
		a3 += b(2*k-r) * F(r-1) * F(r-1)
	}
	for r := 2; r <= k-1; r++ {
		a4 += b(2*k-r) * b(r) * (float64(r-1)*F(r-2) - w*p*F1(r-3))
	}
	f := F(k - 1)
	return min(clampProb(f*f*f-a1+a2+a3-a4), s2)
}

// tail evaluates Tail (see the exported function) for 1 <= k <= w.
func (t tables) tail(k int, L float64) float64 {
	s2 := q2(t.b0, k)
	if L <= 2 {
		s1 := t.b0.CDF(k - 1) // Q1 = P(S_w(w) < k)
		return clampProb(1 - extrapolate(s1, s2, L-1))
	}
	return clampProb(1 - extrapolate(s2, t.q3(k, s2), L-2))
}

// Q2 returns the exact probability that no window of w consecutive trials
// among 2w Bernoulli(p) trials contains k or more successes:
//
//	Q2 = F(k-1)^2 - b(k) * sum_{r=0}^{k-2} F(r)
//
// where b and F are the Binomial(w, p) pmf and cdf. The identity follows
// from a reflection argument on the window-count walk: every length-w window
// inside 2w trials crosses the half boundary, so the maximum window count is
// N1 + max(0, max_y (V_y - U_y)) for the two half prefix-count processes,
// whose maximum obeys an exact reflection identity because the paired step
// distribution is symmetric.
func Q2(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1 // a w-window cannot hold more than w successes
	}
	return q2(NewBinom(w, p), k)
}

// Q3 returns the exact probability that no window of w consecutive trials
// among 3w Bernoulli(p) trials contains k or more successes, by Naus's
// (1982) closed form, O(k) from the three binomial tables:
//
//	Q3 = F(k-1)^3 - A1 + A2 + A3 - A4
//	A1 = 2 b(k) F(k-1) [(k-1) F(k-2) - w p F1(k-3)]
//	A2 = 1/2 b(k)^2 [(k-1)(k-2) F(k-3) - 2(k-2) w p F1(k-4) + w(w-1) p^2 F2(k-5)]
//	A3 = sum_{r=1}^{k-1} b(2k-r) F(r-1)^2
//	A4 = sum_{r=2}^{k-1} b(2k-r) b(r) [(r-1) F(r-2) - w p F1(r-3)]
//
// with b, F the Binomial(w, p) pmf and cdf and F1, F2 the cdfs of
// Binomial(w-1, p) and Binomial(w-2, p); a cdf of a negative argument is 0
// and a pmf above its trial count is 0. The result is clamped to [0, Q2].
// The tests hold it to a three-block dynamic program and to enumeration.
func Q3(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1
	}
	t := newTables(w, p)
	return t.q3(k, q2(t.b0, k))
}

// Tail returns P(S_w(N) >= k | p, w, L) with N = L*w, the probability that
// some window of w consecutive trials among N contains at least k successes.
// L may be fractional and must be >= 1.
//
// For L <= 2 it interpolates the exact single- and double-window survival
// probabilities; for L > 2 it uses the Naus product-type extrapolation
// 1 - Q2 (Q3/Q2)^(L-2) with the exact Q2 and Q3 above.
func Tail(k, w int, p, L float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if L < 1 {
		panic(fmt.Sprintf("scanstat: L = %v < 1", L))
	}
	if k > w {
		return 0
	}
	if k <= 0 {
		return 1
	}
	return newTables(w, p).tail(k, L)
}

// extrapolate computes qa * (qb/qa)^t in log space, treating a zero survival
// probability as zero (certain detection).
func extrapolate(qa, qb float64, t float64) float64 {
	if qa <= 0 || qb <= 0 {
		return 0
	}
	return math.Exp(math.Log(qa) + t*(math.Log(qb)-math.Log(qa)))
}

// critCache memoises CriticalValue process-wide: the function is pure and
// the adaptive engine queries the same (w, p-bucket, L, alpha) points over
// and over across runs.
var critCache sync.Map

type critKey struct {
	w        int
	p, l, al float64
}

// CriticalValue returns the smallest k such that
// P(S_w(N) >= k | p, w, L) <= alpha — the paper's k_crit (Equation 5). The
// tail is non-increasing in k, so a binary search over [1, w] suffices.
//
// If even k = w is not significant (the background probability is too high
// for any in-window count to be surprising) it returns w+1, a sentinel the
// indicator logic treats as "never positive".
func CriticalValue(w int, p, L, alpha float64) int {
	if w <= 0 {
		panic("scanstat: window must be positive")
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("scanstat: alpha = %v out of (0,1)", alpha))
	}
	if p <= 0 {
		return 1 // any success at all is significant against p = 0
	}
	if p >= 1 {
		return w + 1
	}
	key := critKey{w: w, p: p, l: L, al: alpha}
	if k, ok := critCache.Load(key); ok {
		return k.(int)
	}
	k := criticalValueSearch(w, p, L, alpha)
	critCache.Store(key, k)
	return k
}

func criticalValueSearch(w int, p, L, alpha float64) int {
	// Binary search over [1, w+1]; the virtual k = w+1 has tail 0 <= alpha,
	// so the invariant Tail(hi) <= alpha < Tail(lo-1) always holds.
	t := newTables(w, p)
	lo, hi := 1, w+1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.tail(mid, L) <= alpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CriticalValues is a memoizing wrapper around CriticalValue for callers that
// recompute k_crit as an estimated background probability drifts (SVAQD). The
// probability is quantized on a logarithmic grid before lookup, trading an at
// most quantum-sized relative perturbation of p for a high hit rate.
//
// Quantization rounds log10(p) up, never down: the bucket probability is
// always >= p, and the critical value is non-decreasing in p, so a cached
// value is never less conservative than a direct CriticalValue call — the
// property that makes one grid safe to share across concurrent runs whose
// estimates straddle bucket boundaries.
//
// A CriticalValues is safe for concurrent use; Shared returns a process-wide
// instance per (w, L, alpha, grid) so every run of a fleet, and every
// concurrent server query at the same configuration, reuses one memoized
// Naus search instead of owning a private cache.
type CriticalValues struct {
	w     int
	l     float64
	alpha float64
	grid  float64 // log10 quantum, e.g. 0.01 for 100 buckets per decade

	mu    sync.RWMutex
	cache map[int]int
}

// NewCriticalValues builds a private cache for window w, horizon ratio L and
// significance level alpha, quantizing log10(p) to multiples of grid. Most
// callers want Shared instead.
func NewCriticalValues(w int, L, alpha, grid float64) *CriticalValues {
	if grid <= 0 {
		panic("scanstat: grid must be positive")
	}
	return &CriticalValues{w: w, l: L, alpha: alpha, grid: grid, cache: make(map[int]int)}
}

// sharedGrids holds the process-wide CriticalValues instances, keyed by the
// full parameterization so differently configured engines never alias.
var sharedGrids sync.Map

type sharedKey struct {
	w              int
	l, alpha, grid float64
}

// Shared returns the process-wide CriticalValues for (w, L, alpha, grid),
// creating it on first use. All callers with equal parameters receive the
// same instance and therefore share its memoized grid.
func Shared(w int, L, alpha, grid float64) *CriticalValues {
	key := sharedKey{w: w, l: L, alpha: alpha, grid: grid}
	if c, ok := sharedGrids.Load(key); ok {
		return c.(*CriticalValues)
	}
	c, _ := sharedGrids.LoadOrStore(key, NewCriticalValues(w, L, alpha, grid))
	return c.(*CriticalValues)
}

// Sentinel buckets for the degenerate probabilities the grid does not
// cover: p <= 0 always yields k = 1, p >= 1 the never-positive w+1.
const (
	bucketZero = math.MinInt // p <= 0
	bucketOne  = math.MaxInt // p >= 1
)

// BucketOf returns the grid bucket p quantizes to. The critical value is a
// pure function of the bucket, so a caller that tracks the bucket of its
// last lookup can skip the shared cache entirely while its estimate stays
// inside one bucket — the per-clip refresh of a drifting background
// estimate touches the shared grid once per bucket crossing, not once per
// clip.
func (c *CriticalValues) BucketOf(p float64) int {
	if p <= 0 {
		return bucketZero
	}
	if p >= 1 {
		return bucketOne
	}
	// log10(p) < 0 here, so the ceil bucket is <= 0 and its probability
	// 10^(bucket*grid) is in [p, 1] (up to a 1e-9 log10 slop that keeps
	// floating-point representations of on-grid probabilities, e.g.
	// log10(1e-4)/grid = -399.99999999999994, in their own bucket).
	return int(math.Ceil(math.Log10(p)/c.grid - 1e-9))
}

// AtBucket returns the critical value for a bucket previously obtained from
// BucketOf.
func (c *CriticalValues) AtBucket(bucket int) int {
	switch bucket {
	case bucketZero:
		return 1
	case bucketOne:
		return c.w + 1
	}
	c.mu.RLock()
	k, ok := c.cache[bucket]
	c.mu.RUnlock()
	if ok {
		return k
	}
	// Compute outside the lock. Two goroutines missing the same cold bucket
	// both run the search: CriticalValue's process-wide memo is stored only
	// after computing, so it does not single-flight them. The search is pure
	// and costs tens of microseconds, so the duplicate stores the same value
	// and is cheaper than holding the lock across it.
	k = CriticalValue(c.w, math.Pow(10, float64(bucket)*c.grid), c.l, c.alpha)
	c.mu.Lock()
	c.cache[bucket] = k
	c.mu.Unlock()
	return k
}

// At returns the (possibly cached) critical value for background
// probability p. It is safe to call from concurrent runs sharing the cache.
func (c *CriticalValues) At(p float64) int {
	return c.AtBucket(c.BucketOf(p))
}

// AtBatch fills ks[i] with the critical value for ps[i], acquiring the
// shared lock once for the whole batch instead of once per probability.
// Misses are computed outside the lock and inserted in a single write
// round. ks must have len(ps) space; the filled prefix is returned.
func (c *CriticalValues) AtBatch(ps []float64, ks []int) []int {
	ks = ks[:len(ps)]
	miss := false
	c.mu.RLock()
	for i, p := range ps {
		switch b := c.BucketOf(p); b {
		case bucketZero:
			ks[i] = 1
		case bucketOne:
			ks[i] = c.w + 1
		default:
			if k, ok := c.cache[b]; ok {
				ks[i] = k
			} else {
				ks[i] = -1
				miss = true
			}
		}
	}
	c.mu.RUnlock()
	if !miss {
		return ks
	}
	for i, p := range ps {
		if ks[i] < 0 {
			ks[i] = CriticalValue(c.w, math.Pow(10, float64(c.BucketOf(p))*c.grid), c.l, c.alpha)
		}
	}
	c.mu.Lock()
	for i, p := range ps {
		c.cache[c.BucketOf(p)] = ks[i]
	}
	c.mu.Unlock()
	return ks
}

// Size reports how many buckets the cache currently holds (diagnostics).
func (c *CriticalValues) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cache)
}

func checkArgs(k, w int, p float64) error {
	if w <= 0 {
		return fmt.Errorf("scanstat: window w = %d must be positive", w)
	}
	if k < 0 {
		return fmt.Errorf("scanstat: k = %d must be non-negative", k)
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("scanstat: p = %v out of [0,1]", p)
	}
	return nil
}

func clampProb(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
