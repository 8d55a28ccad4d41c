package scanstat

import (
	"math"
	"testing"
)

// refBinomPMF is the per-term pmf NewBinom computed before it hoisted the
// terms that do not depend on j (names aside, verbatim): C(n,j) p^j
// (1-p)^(n-j) through log-gamma, recomputing log p, log(1-p) and
// log Γ(n+1) for every j. TestBinomMatchesPerTermPMF holds NewBinom to its
// bits.
func refBinomPMF(j, n int, p float64) float64 {
	if j < 0 || j > n {
		return 0
	}
	switch {
	case p == 0:
		if j == 0 {
			return 1
		}
		return 0
	case p == 1:
		if j == n {
			return 1
		}
		return 0
	}
	lg := refLchoose(n, j) + float64(j)*math.Log(p) + float64(n-j)*math.Log1p(-p)
	return math.Exp(lg)
}

// refLchoose returns log C(n, k).
func refLchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// TestBinomMatchesPerTermPMF requires every pmf and cdf entry of NewBinom to
// equal, bit for bit, the per-term computation it replaced, over the window
// sizes the engine uses and beyond, at probabilities from the degenerate
// ends through the background rates the estimators sweep.
func TestBinomMatchesPerTermPMF(t *testing.T) {
	ps := []float64{0, 1, 0.5, 0.37, 0.02, 1e-8, 1 - 1e-9, math.Nextafter(0, 1)}
	for e := -800; e <= 0; e += 7 {
		ps = append(ps, math.Pow(10, float64(e)/100))
	}
	for _, n := range []int{0, 1, 2, 3, 5, 48, 49, 50, 100, 333} {
		for _, p := range ps {
			b := NewBinom(n, p)
			sum := 0.0
			for j := 0; j <= n; j++ {
				want := refBinomPMF(j, n, p)
				sum += want
				if sum > 1 {
					sum = 1
				}
				if got := b.PMF(j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("NewBinom(%d, %v).PMF(%d) = %v, per-term %v", n, p, j, got, want)
				}
				if got := b.cdf[j]; math.Float64bits(got) != math.Float64bits(sum) {
					t.Fatalf("NewBinom(%d, %v) cdf[%d] = %v, per-term %v", n, p, j, got, sum)
				}
			}
		}
	}
}
