package detect

import "math"

// Deterministic per-unit randomness: every stochastic decision a simulated
// model makes is a pure function of a structured key, so detections are
// reproducible across passes (a requirement for comparing online and offline
// processing of the same video and for repeatable benchmarks).

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4a2e24f643db7
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// keyed folds parts into a single 64-bit hash. It is a left fold, so
// keyed(a, b, c) == fold(keyed(a, b), c): a prefix shared by many keys is
// folded once and continued per key.
func keyed(parts ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, p := range parts {
		h = fold(h, p)
	}
	return h
}

// fold continues the hash h with one more part.
func fold(h, p uint64) uint64 { return mix64(h ^ p) }

// unitFloat maps a hash to a uniform float in [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// boxMuller maps a hash to a standard normal draw via Box-Muller on two
// derived uniforms: radius sqrt(−2 ln u1) with u1 = radiusUniform(h), angle
// 2π·u2. The caller passes u1 so it can test it first.
func boxMuller(h uint64, u1 float64) float64 {
	u2 := unitFloat(mix64(h ^ 0x5a5a5a5a5a5a5a5a))
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// radiusUniform is boxMuller's u1. |boxMuller(h, u1)| is at most the radius
// sqrt(−2 ln u1), which is below r exactly when u1 > exp(−r²/2).
func radiusUniform(h uint64) float64 { return unitFloat(mix64(h ^ 0xa5a5a5a5a5a5a5a5)) }

// cutoff decides a clamped-normal score clampScore(mean + std·g), g =
// boxMuller(h, radiusUniform(h)), against a threshold τ without drawing
// it: when radiusUniform(h) > u1 the draw's radius cannot carry the score
// across τ, so the score is ≥ τ exactly when above. A u1 of 1 decides
// nothing, since unitFloat < 1. The zero cutoff is not yet computed (ready
// is false).
type cutoff struct {
	u1           float64
	above, ready bool
}

// never is the cutoff of a full draw.
var never = cutoff{u1: 1, ready: true}

// newCutoff is the radius bound of a profile's score distribution at τ,
// computed at most once per batch. With z = (τ − mean)/std, a draw whose
// radius is below |z| lies on the side of τ the mean is on; the bound
// decides it only where that side is decidable at τ. It shrinks |z| by a
// margin — 1e-9 of the distance to τ plus 1e-15 of the operands' scale —
// that absorbs the rounding of the radius, of std·g, of mean + std·g and of
// the exp below, so a decided draw's computed score lies strictly on its
// side. There is no bound for std ≤ 0, or for a radius under 1e-3, where
// exp's rounding near 1 outgrows the margin and the bound would decide next
// to nothing.
func newCutoff(mean, std, tau float64) cutoff {
	if above, below := decidable(tau); !(std > 0) || !(mean > tau && above || mean <= tau && below) {
		return never
	}
	r := (math.Abs(tau-mean)*(1-1e-9) - 1e-15*(1+math.Abs(mean))) / std
	if !(r >= 1e-3) {
		return never
	}
	return cutoff{u1: math.Exp(-r * r / 2), above: mean > tau, ready: true}
}

// Key64 is keyed for callers outside detect that need the same reproducible
// randomness, such as the cluster coordinator's replayable backoff jitter.
func Key64(parts ...uint64) uint64 { return keyed(parts...) }

// KeyString hashes a string into a 64-bit key suitable for Key64.
func KeyString(s string) uint64 { return hashString(s) }

// Unit01 maps a 64-bit key to a uniform float in [0, 1).
func Unit01(h uint64) float64 { return unitFloat(h) }

// scoreFloor is the score a sample at or below 0 is lifted to.
const scoreFloor = 0.01

// decidable reports on which sides of τ a simulated score may be decided
// without drawing it. Above for τ in (0, 1]: a sample x ≥ τ > 0 clamps to
// at least τ. Below only for τ in (scoreFloor, 1], where clampScore is
// monotone across τ; under it a clamped negative lifts to scoreFloor ≥ τ,
// so no draw is certain to fall below τ.
func decidable(tau float64) (above, below bool) {
	above = tau > 0 && tau <= 1
	return above, above && tau > scoreFloor
}

// clampScore maps a sampled confidence into (0, 1]: a sample at or below 0
// becomes scoreFloor, one above 1 becomes 1, and any other — including one
// in (0, scoreFloor) — passes through unchanged.
func clampScore(s float64) float64 {
	if s <= 0 {
		return scoreFloor
	}
	if s > 1 {
		return 1
	}
	return s
}
