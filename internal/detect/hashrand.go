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

// gauss maps a hash to a standard normal draw via Box-Muller on two derived
// uniforms.
func gauss(h uint64) float64 {
	u1 := unitFloat(mix64(h ^ 0xa5a5a5a5a5a5a5a5))
	u2 := unitFloat(mix64(h ^ 0x5a5a5a5a5a5a5a5a))
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Key64 is keyed for callers outside detect that need the same reproducible
// randomness, such as the cluster coordinator's replayable backoff jitter.
func Key64(parts ...uint64) uint64 { return keyed(parts...) }

// KeyString hashes a string into a 64-bit key suitable for Key64.
func KeyString(s string) uint64 { return hashString(s) }

// Unit01 maps a 64-bit key to a uniform float in [0, 1).
func Unit01(h uint64) float64 { return unitFloat(h) }

// clampScore limits a sampled confidence to (0, 1].
func clampScore(s float64) float64 {
	if s <= 0 {
		return 0.01
	}
	if s > 1 {
		return 1
	}
	return s
}
