// Package scanstat implements the scan statistics used by the engine to turn
// noisy per-frame / per-shot detector events into statistically significant
// per-clip decisions.
//
// The discrete scan statistic S_w(N) is the maximum number of successes
// observed in any window of w consecutive Bernoulli(p) trials among N trials.
// The engine needs the tail P(S_w(N) >= k) to compute the critical value
// k_crit: the smallest count of positive detections inside a clip that is
// significant at level alpha under the background probability p (paper
// Equation 5, following Naus's product-type approximation
// P(S_w(N) >= k) ~ 1 - Q2 (Q3/Q2)^(L-2), L = N/w).
//
// Q2 = P(S_w(2w) < k) is computed in closed form,
//
//	Q2 = F(k-1; w, p)^2 - b(k; w, p) * sum_{r=0}^{k-2} F(r; w, p),
//
// which is exact (derived by a reflection argument on the window-count walk
// and verified against enumeration in the tests). Q3 = P(S_w(3w) < k) is
// Naus's (1982) exact closed form, O(k) from the pmf and cdf tables of
// Binomial(w, p), Binomial(w-1, p) and Binomial(w-2, p) (see q3). That makes
// the L<=3 cases exact and the extrapolation to larger L the only
// approximation. The closed form is easy to mis-transcribe, so the tests
// referee it with an independent O(w k^4) dynamic program over the three
// w-blocks (q3DP, the former production Q3), with enumeration of all 2^(3w)
// sequences at small w, and with a committed golden grid of critical values.
package scanstat

import "math"

// Binom bundles the binomial pmf and cdf for n trials with success
// probability p, computed in log space for numerical stability at the very
// small background probabilities (1e-6 .. 1e-1) the engine sweeps.
type Binom struct {
	n int
	p float64
	// cdf[j] = P(X <= j) for j in [0, n]; precomputed because callers
	// evaluate many tail probabilities for the same (n, p).
	cdf []float64
	pmf []float64
}

// NewBinom prepares pmf/cdf tables for Binomial(n, p). It panics on invalid
// arguments since they indicate programmer error, not data error.
func NewBinom(n int, p float64) *Binom {
	if n < 0 {
		panic("scanstat: negative trial count")
	}
	if p < 0 || p > 1 {
		panic("scanstat: probability out of [0,1]")
	}
	b := &Binom{n: n, p: p, pmf: make([]float64, n+1), cdf: make([]float64, n+1)}
	switch p {
	case 0: // log(0) would poison the log-space form below
		b.pmf[0] = 1
	case 1:
		b.pmf[n] = 1
	default:
		// C(n,j) p^j (1-p)^(n-j) through log-gamma. These logs are most
		// of a critical table's build, so each is computed once: log Γ(m+1)
		// for m in [0, n], parked in cdf until the sums overwrite it, and
		// log p and log(1-p). Each term keeps the per-term form's order of
		// operations (binom_ref_test.go), so every entry has its bits.
		lg := b.cdf
		for m := range lg {
			lg[m], _ = math.Lgamma(float64(m + 1))
		}
		logP, log1mP := math.Log(p), math.Log1p(-p)
		for j := range b.pmf {
			b.pmf[j] = math.Exp(lg[n] - lg[j] - lg[n-j] + float64(j)*logP + float64(n-j)*log1mP)
		}
	}
	sum := 0.0
	for j, v := range b.pmf {
		sum += v
		if sum > 1 {
			sum = 1
		}
		b.cdf[j] = sum
	}
	return b
}

// N returns the number of trials.
func (b *Binom) N() int { return b.n }

// P returns the success probability.
func (b *Binom) P() float64 { return b.p }

// PMF returns P(X = j); zero outside [0, n].
func (b *Binom) PMF(j int) float64 {
	if j < 0 || j > b.n {
		return 0
	}
	return b.pmf[j]
}

// CDF returns P(X <= j); zero below 0 and one above n.
func (b *Binom) CDF(j int) float64 {
	if j < 0 {
		return 0
	}
	if j >= b.n {
		return 1
	}
	return b.cdf[j]
}

// Tail returns P(X >= j).
func (b *Binom) Tail(j int) float64 {
	if j <= 0 {
		return 1
	}
	return 1 - b.CDF(j-1)
}
