package scanstat

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// exactQ computes P(S_w(N) < k) by full enumeration of all 2^N Bernoulli
// sequences — the ground truth the closed form and the DP must match.
func exactQ(k, w, N int, p float64) float64 {
	total := 0.0
	for mask := 0; mask < (1 << N); mask++ {
		cnt := 0
		for i := 0; i < w; i++ {
			if mask&(1<<i) != 0 {
				cnt++
			}
		}
		mx := cnt
		for y := 1; y+w <= N; y++ {
			if mask&(1<<(y-1)) != 0 {
				cnt--
			}
			if mask&(1<<(y+w-1)) != 0 {
				cnt++
			}
			if cnt > mx {
				mx = cnt
			}
		}
		if mx < k {
			ones := 0
			for i := 0; i < N; i++ {
				if mask&(1<<i) != 0 {
					ones++
				}
			}
			total += math.Pow(p, float64(ones)) * math.Pow(1-p, float64(N-ones))
		}
	}
	return total
}

// q3DP computes P(S_w(3w) < k) by an O(w k^4) dynamic program over the three
// w-blocks. It was the production Q3 until Naus's closed form replaced it and
// stays, unchanged, as the referee that guards the closed form against
// mis-transcription beyond the sizes exactQ can enumerate.
//
// Derivation: split trials into blocks B1 B2 B3 of w each. Window counts are
// C_{y+1} = R1_y + V_y (windows crossing the B1/B2 boundary) and
// C_{w+1+y} = R2_y + T_y (crossing B2/B3), for y = 0..w, where R1_y and R2_y
// count block successes not yet passed by the window start, and V_y, T_y are
// prefix counts of B2 and B3. R1 and R2 are Markov when conditioned on their
// remaining counts (exchangeability of iid trials), and T has iid Bernoulli
// increments, so the joint survival probability is a small DP over the state
// (R1_y, V_y, R2_y, T_y) restricted to R1+V <= k-1 and R2+T <= k-1.
func q3DP(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1
	}
	prior := NewBinom(w, p)

	// pairIdx enumerates pairs (a, b) with a+b <= k-1, a,b >= 0.
	np := k * (k + 1) / 2
	pairIdx := func(a, b int) int {
		// Pairs ordered by a: for fixed a, b in [0, k-1-a].
		// offset(a) = sum_{i<a} (k-i) = a*k - a(a-1)/2
		return a*k - a*(a-1)/2 + b
	}

	// cur[i1*np+i2]: i1 indexes (r1, v), i2 indexes (r2, t).
	cur := make([]float64, np*np)
	next := make([]float64, np*np)

	// y = 0: v = t = 0, r1 = N1 <= k-1, r2 = N2 <= k-1.
	for r1 := 0; r1 <= k-1; r1++ {
		for r2 := 0; r2 <= k-1; r2++ {
			cur[pairIdx(r1, 0)*np+pairIdx(r2, 0)] = prior.PMF(r1) * prior.PMF(r2)
		}
	}

	for y := 0; y < w; y++ {
		m := float64(w - y) // trials remaining in each of B1, B2
		for i := range next {
			next[i] = 0
		}
		for r1 := 0; r1 <= k-1; r1++ {
			for v := 0; v+r1 <= k-1; v++ {
				i1 := pairIdx(r1, v)
				for r2 := 0; r2 <= k-1; r2++ {
					for t := 0; t+r2 <= k-1; t++ {
						pr := cur[i1*np+pairIdx(r2, t)]
						if pr == 0 {
							continue
						}
						// Probability the leaving B1 trial is a success, given
						// r1 successes remain among the m undecided trials.
						a1 := float64(r1) / m
						a2 := float64(r2) / m
						for d1 := 0; d1 <= 1; d1++ { // B1 leave success?
							p1 := a1
							nr1 := r1 - 1
							if d1 == 0 {
								p1, nr1 = 1-a1, r1
							}
							if p1 == 0 {
								continue
							}
							for d2 := 0; d2 <= 1; d2++ { // B2 leave success?
								p2 := a2
								nr2, nv := r2-1, v+1
								if d2 == 0 {
									p2, nr2, nv = 1-a2, r2, v
								}
								if p2 == 0 {
									continue
								}
								for d3 := 0; d3 <= 1; d3++ { // B3 arrival success?
									p3 := p
									nt := t + 1
									if d3 == 0 {
										p3, nt = 1-p, t
									}
									if p3 == 0 {
										continue
									}
									if nr1+nv > k-1 || nr2+nt > k-1 {
										continue // a window reached k: path dies
									}
									next[pairIdx(nr1, nv)*np+pairIdx(nr2, nt)] += pr * p1 * p2 * p3
								}
							}
						}
					}
				}
			}
		}
		cur, next = next, cur
	}

	total := 0.0
	for _, v := range cur {
		total += v
	}
	return clampProb(total)
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 50, 200} {
		for _, p := range []float64{0, 1e-6, 1e-3, 0.5, 0.97, 1} {
			b := NewBinom(n, p)
			sum := 0.0
			for j := 0; j <= n; j++ {
				sum += b.PMF(j)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("n=%d p=%g: pmf sums to %v", n, p, sum)
			}
			if b.CDF(n) != 1 || b.CDF(-1) != 0 {
				t.Errorf("n=%d p=%g: cdf boundaries wrong", n, p)
			}
			if b.Tail(0) != 1 {
				t.Errorf("n=%d p=%g: Tail(0) = %v", n, p, b.Tail(0))
			}
		}
	}
}

func TestBinomKnownValues(t *testing.T) {
	b := NewBinom(4, 0.5)
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for j, w := range want {
		if got := b.PMF(j); math.Abs(got-w) > 1e-12 {
			t.Errorf("PMF(%d) = %v, want %v", j, got, w)
		}
	}
	if got := b.CDF(2); math.Abs(got-11.0/16) > 1e-12 {
		t.Errorf("CDF(2) = %v", got)
	}
	if got := b.Tail(3); math.Abs(got-5.0/16) > 1e-12 {
		t.Errorf("Tail(3) = %v", got)
	}
}

func TestBinomDegenerate(t *testing.T) {
	b0 := NewBinom(10, 0)
	if b0.PMF(0) != 1 || b0.PMF(1) != 0 {
		t.Error("p=0 pmf should be a point mass at 0")
	}
	b1 := NewBinom(10, 1)
	if b1.PMF(10) != 1 || b1.PMF(9) != 0 {
		t.Error("p=1 pmf should be a point mass at n")
	}
}

func TestQ2MatchesEnumeration(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 7, 9} {
		for k := 1; k <= w+1; k++ {
			for _, p := range []float64{0.05, 0.2, 0.5, 0.8, 0.95} {
				got := Q2(k, w, p)
				want := exactQ(k, w, 2*w, p)
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("Q2(k=%d,w=%d,p=%g) = %v, want %v", k, w, p, got, want)
				}
			}
		}
	}
}

func TestQ3MatchesEnumeration(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 6} {
		for k := 1; k <= w+1; k++ {
			for _, p := range []float64{0.1, 0.35, 0.5, 0.75} {
				got := Q3(k, w, p)
				want := exactQ(k, w, 3*w, p)
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("Q3(k=%d,w=%d,p=%g) = %v, want %v", k, w, p, got, want)
				}
			}
		}
	}
}

func TestQ2Q3Degenerate(t *testing.T) {
	if got := Q2(0, 5, 0.3); got != 0 {
		t.Errorf("Q2(k=0) = %v, want 0 (S>=0 is certain)", got)
	}
	if got := Q3(0, 5, 0.3); got != 0 {
		t.Errorf("Q3(k=0) = %v, want 0", got)
	}
	if got := Q2(6, 5, 0.3); got != 1 {
		t.Errorf("Q2(k>w) = %v, want 1", got)
	}
	if got := Q3(6, 5, 0.3); got != 1 {
		t.Errorf("Q3(k>w) = %v, want 1", got)
	}
	if got := Q2(3, 5, 0); got != 1 {
		t.Errorf("Q2(p=0) = %v, want 1", got)
	}
	if got := Q3(3, 5, 1); got != 0 {
		t.Errorf("Q3(p=1,k<=w) = %v, want 0", got)
	}
}

func TestTailExactAtSmallL(t *testing.T) {
	// L = 1, 2, 3 are exact: single window binomial, Q2, Q3.
	for _, p := range []float64{0.1, 0.4} {
		w, k := 6, 3
		if got, want := Tail(k, w, p, 1), 1-NewBinom(w, p).CDF(k-1); math.Abs(got-want) > 1e-12 {
			t.Errorf("Tail L=1: %v want %v", got, want)
		}
		if got, want := Tail(k, w, p, 2), 1-Q2(k, w, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Tail L=2: %v want %v", got, want)
		}
		if got, want := Tail(k, w, p, 3), 1-Q3(k, w, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Tail L=3: %v want %v", got, want)
		}
	}
}

// mcTail estimates P(S_w(N) >= k) by simulation.
func mcTail(k, w, N int, p float64, trials int, r *rand.Rand) float64 {
	hits := 0
	buf := make([]bool, N)
	for t := 0; t < trials; t++ {
		for i := range buf {
			buf[i] = r.Float64() < p
		}
		cnt := 0
		for i := 0; i < w; i++ {
			if buf[i] {
				cnt++
			}
		}
		mx := cnt
		for y := w; y < N; y++ {
			if buf[y] {
				cnt++
			}
			if buf[y-w] {
				cnt--
			}
			if cnt > mx {
				mx = cnt
			}
		}
		if mx >= k {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// TestTailMonteCarlo validates the product-type extrapolation beyond L=3 on
// window sizes the engine actually uses (50-frame clips).
func TestTailMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation is slow")
	}
	r := rand.New(rand.NewSource(42))
	cases := []struct {
		k, w int
		p    float64
		L    float64
	}{
		{3, 50, 0.01, 10},
		{5, 50, 0.02, 20},
		{4, 20, 0.05, 8},
		{8, 50, 0.05, 40},
		{3, 10, 0.05, 12},
	}
	for _, c := range cases {
		approx := Tail(c.k, c.w, c.p, c.L)
		emp := mcTail(c.k, c.w, int(c.L)*c.w, c.p, 20000, r)
		// Approximation plus MC noise: accept 0.015 absolute + 15% relative.
		tol := 0.015 + 0.15*emp
		if math.Abs(approx-emp) > tol {
			t.Errorf("Tail(k=%d,w=%d,p=%g,L=%g) = %v, MC = %v (tol %v)",
				c.k, c.w, c.p, c.L, approx, emp, tol)
		}
	}
}

func TestTailMonotoneInK(t *testing.T) {
	// w = 100 walks k through the whole range the closed-form Q3 serves,
	// far past where the dynamic program it replaced was ever run.
	for _, c := range []struct {
		w int
		L float64
	}{{20, 15}, {100, 20}} {
		for _, p := range []float64{1e-6, 0.001, 0.05, 0.3, 0.79, 0.99} {
			prev := 1.1
			for k := 1; k <= c.w; k++ {
				got := Tail(k, c.w, p, c.L)
				if got > prev+1e-12 {
					t.Errorf("Tail not non-increasing at k=%d w=%d p=%g: %v > %v", k, c.w, p, got, prev)
				}
				prev = got
			}
		}
	}
}

func TestTailMonotoneInPAndL(t *testing.T) {
	prev := -1.0
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3} {
		got := Tail(4, 50, p, 10)
		if got < prev-1e-12 {
			t.Errorf("Tail not non-decreasing in p at %g: %v < %v", p, got, prev)
		}
		prev = got
	}
	prev = -1.0
	for _, L := range []float64{1, 2, 3, 5, 10, 50, 200} {
		got := Tail(4, 50, 0.01, L)
		if got < prev-1e-12 {
			t.Errorf("Tail not non-decreasing in L at %g: %v < %v", L, got, prev)
		}
		prev = got
	}
}

func TestCriticalValueDefinition(t *testing.T) {
	// k_crit must be the smallest significant k.
	for _, c := range []struct {
		w     int
		p, L  float64
		alpha float64
	}{
		{50, 1e-4, 100, 0.05},
		{50, 1e-2, 100, 0.05},
		{50, 0.1, 100, 0.05},
		{5, 0.05, 100, 0.05},
		{20, 0.3, 10, 0.01},
	} {
		k := CriticalValue(c.w, c.p, c.L, c.alpha)
		if k < 1 || k > c.w+1 {
			t.Fatalf("CriticalValue(%+v) = %d out of range", c, k)
		}
		if k <= c.w {
			if got := Tail(k, c.w, c.p, c.L); got > c.alpha {
				t.Errorf("%+v: Tail(k_crit=%d) = %v > alpha", c, k, got)
			}
		}
		if k > 1 {
			if got := Tail(k-1, c.w, c.p, c.L); got <= c.alpha {
				t.Errorf("%+v: Tail(k_crit-1=%d) = %v <= alpha, k_crit not minimal", c, k-1, got)
			}
		}
	}
}

func TestCriticalValueEdges(t *testing.T) {
	if got := CriticalValue(50, 0, 100, 0.05); got != 1 {
		t.Errorf("p=0: k_crit = %d, want 1", got)
	}
	if got := CriticalValue(50, 1, 100, 0.05); got != 51 {
		t.Errorf("p=1: k_crit = %d, want w+1", got)
	}
	// Very high background: even a full window is unsurprising.
	if got := CriticalValue(5, 0.99, 1000, 0.05); got != 6 {
		t.Errorf("p=0.99: k_crit = %d, want w+1 sentinel", got)
	}
}

func TestCriticalValueMonotoneInP(t *testing.T) {
	prev := 0
	for _, p := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3} {
		k := CriticalValue(50, p, 100, 0.05)
		if k < prev {
			t.Errorf("k_crit not non-decreasing in p: k(%g) = %d < %d", p, k, prev)
		}
		prev = k
	}
}

func TestCriticalValuesCache(t *testing.T) {
	c := NewCriticalValues(50, 100, 0.05, 0.01)
	exact := CriticalValue(50, 1e-4, 100, 0.05)
	got := c.At(1e-4)
	if got != exact {
		t.Errorf("cached At(1e-4) = %d, exact %d", got, exact)
	}
	// Same bucket should be served from the cache (same answer).
	if again := c.At(1.001e-4); again != got {
		t.Errorf("near-identical p got %d, want %d", again, got)
	}
	if c.At(0) != 1 {
		t.Error("At(0) should be 1")
	}
	if c.At(1) != 51 {
		t.Error("At(1) should be w+1")
	}
	if c.At(2) != 51 {
		t.Error("At(p>1) should be w+1")
	}
}

// TestCriticalValuesAtOffGrid pins the conservativeness contract that makes
// the grid safe to share: for probabilities below the grid floor, between
// grid points, and near 1, the cached value must never be less conservative
// (smaller) than a direct CriticalValue computation at the same p.
func TestCriticalValuesAtOffGrid(t *testing.T) {
	const (
		w     = 50
		L     = 100.0
		alpha = 0.05
		grid  = 0.02
	)
	c := NewCriticalValues(w, L, alpha, grid)
	ps := []float64{
		// Far below any plausible grid floor (the kernel estimator's own
		// floor is 1e-9; these probe deeper).
		1e-300, 1e-30, 1e-12, 1e-9,
		// Between grid points: 0.02 log10 steps put buckets at 10^-4.00,
		// 10^-3.98, ...; these land strictly inside buckets.
		1.05e-4, 1.3e-4, 3.33e-3, 0.0123,
		// On-grid representatives.
		1e-4, 1e-2,
		// Near 1, including values inside the top bucket.
		0.5, 0.9, 0.97, 0.999, 1 - 1e-12,
	}
	for _, p := range ps {
		got := c.At(p)
		direct := CriticalValue(w, p, L, alpha)
		if got < direct {
			t.Errorf("At(%g) = %d is less conservative than direct CriticalValue %d", p, got, direct)
		}
		// The quantization inflates p by at most one grid step, so the
		// cached value can exceed the direct one only by what a one-step
		// p-perturbation justifies.
		stepped := CriticalValue(w, math.Min(1, p*math.Pow(10, grid)), L, alpha)
		if got > stepped {
			t.Errorf("At(%g) = %d exceeds one-grid-step bound %d", p, got, stepped)
		}
	}
	// Repeat lookups hit the cache and must agree with the first answer.
	for _, p := range ps {
		if again := c.At(p); again != c.At(p) || again < CriticalValue(w, p, L, alpha) {
			t.Errorf("repeat At(%g) unstable or non-conservative: %d", p, again)
		}
	}
}

// TestSharedCriticalValues checks the process-wide registry: identical
// parameters alias to one instance, different parameters never do, and the
// shared grid serves concurrent readers racing on the same buckets (the
// fleet-evaluation access pattern; run under -race).
func TestSharedCriticalValues(t *testing.T) {
	a := Shared(40, 20, 0.05, 0.02)
	b := Shared(40, 20, 0.05, 0.02)
	if a != b {
		t.Fatal("identical parameters returned distinct shared grids")
	}
	if c := Shared(41, 20, 0.05, 0.02); c == a {
		t.Fatal("different window aliased to the same shared grid")
	}
	if c := Shared(40, 20, 0.01, 0.02); c == a {
		t.Fatal("different alpha aliased to the same shared grid")
	}

	ps := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}
	want := make([]int, len(ps))
	for i, p := range ps {
		want[i] = a.At(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, p := range ps {
					if got := a.At(p); got != want[i] {
						t.Errorf("concurrent At(%g) = %d, want %d", p, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedBuildsOnce races first uses of one configuration: every caller
// must receive the same instance, holding the table a private build finds.
func TestSharedBuildsOnce(t *testing.T) {
	const w, L, alpha, grid = 37, 45.0, 0.03, 0.02
	got := make([]*CriticalValues, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Shared(w, L, alpha, grid)
		}()
	}
	wg.Wait()
	for _, c := range got[1:] {
		if c != got[0] {
			t.Fatal("concurrent first uses returned distinct shared tables")
		}
	}
	if want := NewCriticalValues(w, L, alpha, grid).steps; !slices.Equal(got[0].steps, want) {
		t.Errorf("shared steps %v, private build %v", got[0].steps, want)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	assertPanics(t, "negative k", func() { Q2(-1, 5, 0.5) })
	assertPanics(t, "zero w", func() { Q3(1, 0, 0.5) })
	assertPanics(t, "bad p", func() { Tail(1, 5, 1.5, 2) })
	assertPanics(t, "L<1", func() { Tail(1, 5, 0.5, 0.5) })
	assertPanics(t, "bad alpha", func() { CriticalValue(5, 0.5, 2, 0) })
	assertPanics(t, "bad grid", func() { NewCriticalValues(5, 2, 0.05, 0) })
	assertPanics(t, "negative n", func() { NewBinom(-1, 0.5) })
	assertPanics(t, "binom bad p", func() { NewBinom(5, -0.1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestBucketOfContract checks the bucket quantization At relies on:
// degenerate probabilities, same-bucket equality for nearby probabilities,
// and that At(p) is the critical value at the probability of p's bucket.
func TestBucketOfContract(t *testing.T) {
	c := NewCriticalValues(50, 100, 0.05, 0.01)
	if c.At(0) != 1 || c.At(-3) != 1 {
		t.Error("every p <= 0 should get k = 1")
	}
	if c.At(1) != 51 || c.At(7) != 51 {
		t.Error("every p >= 1 should get k = w+1")
	}
	// 1.01e-4 and 1.02e-4 both sit strictly inside the (10^-4.00, 10^-3.99]
	// bucket; 1e-4 itself is the on-grid lower edge and gets its own.
	for _, tc := range []struct {
		p      float64
		bucket int
	}{{1.01e-4, -399}, {1.02e-4, -399}, {1e-4, -400}, {0.37, -43}, {1e-8, -800}} {
		if got, want := c.At(tc.p), CriticalValue(50, math.Pow(10, float64(tc.bucket)*0.01), 100, 0.05); got != want {
			t.Errorf("At(%g) = %d, want CriticalValue at bucket %d = %d", tc.p, got, tc.bucket, want)
		}
	}
}
