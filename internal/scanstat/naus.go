package scanstat

import (
	"fmt"
	"math"
	"sort"
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

// q2 returns, for 0 <= k <= w, the exact probability Q2 that no window of w
// consecutive trials among 2w Bernoulli(p) trials contains k or more
// successes:
//
//	Q2 = F(k-1)^2 - b(k) * sum_{r=0}^{k-2} F(r)
//
// where b and F are the pmf and cdf of the Binomial(w, p) table. The identity
// follows from a reflection argument on the window-count walk: every
// length-w window inside 2w trials crosses the half boundary, so the maximum
// window count is N1 + max(0, max_y (V_y - U_y)) for the two half
// prefix-count processes, whose maximum obeys an exact reflection identity
// because the paired step distribution is symmetric.
func q2(b *Binom, k int) float64 {
	g := 0.0
	for r := 0; r <= k-2; r++ {
		g += b.CDF(r)
	}
	f := b.CDF(k - 1)
	return clampProb(f*f - b.PMF(k)*g)
}

// q3 returns, for 0 <= k <= w, the exact probability Q3 that no window of w
// consecutive trials among 3w Bernoulli(p) trials contains k or more
// successes, by Naus's (1982) closed form, O(k) from the three binomial
// tables:
//
//	Q3 = F(k-1)^3 - A1 + A2 + A3 - A4
//	A1 = 2 b(k) F(k-1) [(k-1) F(k-2) - w p F1(k-3)]
//	A2 = 1/2 b(k)^2 [(k-1)(k-2) F(k-3) - 2(k-2) w p F1(k-4) + w(w-1) p^2 F2(k-5)]
//	A3 = sum_{r=1}^{k-1} b(2k-r) F(r-1)^2
//	A4 = sum_{r=2}^{k-1} b(2k-r) b(r) [(r-1) F(r-2) - w p F1(r-3)]
//
// with b, F the Binomial(w, p) pmf and cdf and F1, F2 the cdfs of
// Binomial(w-1, p) and Binomial(w-2, p); a cdf of a negative argument is 0
// and a pmf above its trial count is 0. The result is clamped to [0, s2],
// s2 = q2(t.b0, k): three w-blocks cannot survive more often than two. The
// tests hold it to a three-block dynamic program and to enumeration.
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

// tail returns, for 1 <= k <= w, P(S_w(N) >= k | p, w, L) with N = L*w, the
// probability that some window of w consecutive trials among N contains at
// least k successes; L may be fractional and must be >= 1. For L <= 2 it
// interpolates the exact single- and double-window survival probabilities;
// for L > 2 it uses the Naus product-type extrapolation
// 1 - Q2 (Q3/Q2)^(L-2) with the exact Q2 and Q3 above.
func (t tables) tail(k int, L float64) float64 {
	s2 := q2(t.b0, k)
	if L <= 2 {
		s1 := t.b0.CDF(k - 1) // Q1 = P(S_w(w) < k)
		return clampProb(1 - extrapolate(s1, s2, L-1))
	}
	return clampProb(1 - extrapolate(s2, t.q3(k, s2), L-2))
}

// extrapolate computes qa * (qb/qa)^t in log space, treating a zero survival
// probability as zero (certain detection).
func extrapolate(qa, qb float64, t float64) float64 {
	if qa <= 0 || qb <= 0 {
		return 0
	}
	return math.Exp(math.Log(qa) + t*(math.Log(qb)-math.Log(qa)))
}

// critCache memoises CriticalValue process-wide: the function is pure, and
// every static (SVAQ) run at a configuration asks it for the same exact,
// off-grid p0.
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
	checkLevel(w, alpha)
	key := critKey{w: w, p: p, l: L, al: alpha}
	if k, ok := critCache.Load(key); ok {
		return k.(int)
	}
	k := criticalValue(w, p, L, alpha)
	critCache.Store(key, k)
	return k
}

// criticalValue is CriticalValue without the memo.
func criticalValue(w int, p, L, alpha float64) int {
	if p <= 0 {
		return 1 // any success at all is significant against p = 0
	}
	if p >= 1 {
		return w + 1
	}
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

func checkLevel(w int, alpha float64) {
	if w <= 0 {
		panic("scanstat: window must be positive")
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("scanstat: alpha = %v out of (0,1)", alpha))
	}
}

// CriticalValues is k_crit for one (w, L, alpha) as a function of a
// background probability that drifts (SVAQD). The probability is quantized
// on a logarithmic grid: log10(p) is rounded up, never down, to a multiple of
// grid, so the bucket probability is always >= p, and the critical value is
// non-decreasing in p, so a bucket's value is never less conservative than
// CriticalValue(p) itself — the property that makes one table safe to share
// across concurrent runs whose estimates straddle bucket boundaries.
//
// Over the buckets, k_crit is a non-decreasing step function with at most w
// steps. A CriticalValues holds the buckets at which it steps up, found once
// when it is built; At is a binary search over them. It is immutable, so it
// is safe for concurrent use without a lock; Shared returns one per (w, L,
// alpha, grid) for the whole process.
type CriticalValues struct {
	grid float64 // log10 quantum, e.g. 0.02 for 50 buckets per decade
	// steps[j] is the lowest bucket whose critical value exceeds j+1, so the
	// critical value at bucket b is 1 plus the number of steps at or below b.
	steps []int
}

// newCriticalValues builds the table for window w, horizon ratio L and
// significance level alpha over log10 buckets of width grid. It bisects the
// buckets from the smallest positive float64's to p = 1's, running
// CriticalValue's search at each bucket probability it probes, until every
// step is pinned to its bucket: a span whose ends share a critical value
// holds no step, since the value is monotone in p. The table therefore
// answers what CriticalValue answers at each bucket probability, at a cost of
// a few hundred searches (milliseconds at w = 50) once per configuration.
func newCriticalValues(w int, L, alpha, grid float64) *CriticalValues {
	c := &CriticalValues{grid: grid, steps: make([]int, w)}
	at := func(b int) int { return criticalValue(w, math.Pow(10, float64(b)*grid), L, alpha) }
	floor := c.bucketOf(math.SmallestNonzeroFloat64)
	kFloor := at(floor)
	for j := 0; j < kFloor-1; j++ {
		c.steps[j] = floor
	}
	c.bisect(at, floor, 0, kFloor, w+1)
	return c
}

// bisect records the steps between buckets lo < hi, whose critical values
// are klo <= khi.
func (c *CriticalValues) bisect(at func(int) int, lo, hi, klo, khi int) {
	switch {
	case klo == khi:
		return
	case hi-lo == 1:
		for j := klo - 1; j < khi-1; j++ {
			c.steps[j] = hi
		}
		return
	}
	mid := lo + (hi-lo)/2
	kmid := at(mid)
	c.bisect(at, lo, mid, klo, kmid)
	c.bisect(at, mid, hi, kmid, khi)
}

// sharedTables holds the process-wide tables, keyed by the full
// parameterization so differently configured engines never alias.
var sharedTables sync.Map // sharedKey -> *sharedTable

type sharedKey struct {
	w              int
	l, alpha, grid float64
}

type sharedTable struct {
	once sync.Once
	c    *CriticalValues
}

// Shared returns the process-wide CriticalValues for (w, L, alpha, grid),
// building its table on first use, exactly once: all callers with equal
// parameters, however many race on the first, receive the same instance.
func Shared(w int, L, alpha, grid float64) *CriticalValues {
	key := sharedKey{w: w, l: L, alpha: alpha, grid: grid}
	e, ok := sharedTables.Load(key)
	if !ok {
		// Refuse bad parameters before any entry holds them.
		checkLevel(w, alpha)
		if grid <= 0 {
			panic("scanstat: grid must be positive")
		}
		e, _ = sharedTables.LoadOrStore(key, new(sharedTable))
	}
	s := e.(*sharedTable)
	s.once.Do(func() { s.c = newCriticalValues(w, L, alpha, grid) })
	return s.c
}

// bucketOf returns the grid bucket p quantizes to. For 0 < p < 1 that is
// log10(p)/grid rounded up, <= 0, whose probability 10^(bucket*grid) is in
// [p, 1] (up to a 1e-9 log10 slop that keeps floating-point representations
// of on-grid probabilities, e.g. log10(1e-4)/grid = -399.99999999999994, in
// their own bucket). p <= 0 lies below every step (k = 1) and p >= 1 in
// p = 1's bucket 0, at or above every step (k = w+1).
func (c *CriticalValues) bucketOf(p float64) int {
	switch {
	case p <= 0:
		return math.MinInt
	case p >= 1:
		return 0
	}
	return int(math.Ceil(math.Log10(p)/c.grid - 1e-9))
}

// At returns the critical value for background probability p: the one
// CriticalValue returns at the probability of p's bucket. It neither locks
// nor allocates.
func (c *CriticalValues) At(p float64) int {
	return 1 + sort.SearchInts(c.steps, c.bucketOf(p)+1)
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
