package scanstat

import (
	"math"
	"testing"
)

// tableGrid is the engine's default log10 bucket width (core.Config.CritGrid).
const tableGrid = 0.02

// tableWindows and tableHorizons span the (w, L) configurations the engine
// and its experiments run at alpha = 0.05: frame and shot windows of every
// geometry and every horizon the ablations sweep.
var (
	tableWindows  = []int{3, 5, 10, 30, 50, 100}
	tableHorizons = []float64{5, 20, 100, 500}
)

// bucketProbability is the probability of the grid bucket p quantises to:
// log10(p) rounded up to a multiple of grid, less the 1e-9 slop that keeps
// an on-grid probability in its own bucket.
func bucketProbability(p, grid float64) float64 {
	return math.Pow(10, math.Ceil(math.Log10(p)/grid-1e-9)*grid)
}

// checkTable holds the shared critical values at p to CriticalValue's own
// search at p's bucket probability.
func checkTable(t *testing.T, w int, L, alpha, p float64) {
	t.Helper()
	got := Shared(w, L, alpha, tableGrid).At(p)
	if want := CriticalValue(w, bucketProbability(p, tableGrid), L, alpha); got != want {
		t.Errorf("Shared(w=%d, L=%g, alpha=%g).At(%g) = %d, CriticalValue at its bucket = %d", w, L, alpha, p, got, want)
	}
}

// TestCriticalTableMatchesSearch checks every production configuration at
// every bucket from p = 10^-12 to 1, and at every 37th bucket below that,
// down to the bucket of the smallest positive float64.
func TestCriticalTableMatchesSearch(t *testing.T) {
	floor := int(math.Ceil(math.Log10(math.SmallestNonzeroFloat64)/tableGrid - 1e-9))
	for _, w := range tableWindows {
		for _, L := range tableHorizons {
			check := func(b int) { checkTable(t, w, L, 0.05, math.Pow(10, float64(b)*tableGrid)) }
			for b := 0; b >= -600; b-- {
				check(b)
			}
			for b := -637; b > floor; b -= 37 {
				check(b)
			}
			check(floor)
		}
	}
}

// FuzzCriticalTableMatchesSearch searches (w, L, alpha, p) for a point where
// the shared critical values leave CriticalValue's search at p's bucket.
func FuzzCriticalTableMatchesSearch(f *testing.F) {
	for _, w := range tableWindows {
		for _, L := range tableHorizons {
			f.Add(uint8(w), L, 0.05, 1e-3)
		}
	}
	f.Add(uint8(119), 1000.0, 0.001, 0.3)
	f.Add(uint8(0), 1.0, 0.5, 1.0)
	f.Add(uint8(50), 20.0, 0.05, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, w uint8, L, alpha, p float64) {
		// The comparisons also reject NaN.
		if !(L >= 1 && L <= 1000 && alpha > 0 && alpha < 0.6 && p > 0 && p <= 1) {
			t.Skip()
		}
		checkTable(t, 1+int(w)%120, L, alpha, p)
	})
}
