package scanstat

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestGoldenCriticalGrid holds CriticalValue to the committed grid in
// testdata/critical_grid.golden (its header says where the numbers come
// from). Every clip decision is a function of these values, so any
// difference means served answers and their priced cost moved.
func TestGoldenCriticalGrid(t *testing.T) {
	f, err := os.Open("testdata/critical_grid.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws := []int{5, 30, 50, 100}
	next := -350
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var b int
		want := make([]int, len(ws))
		if _, err := fmt.Sscan(line, &b, &want[0], &want[1], &want[2], &want[3]); err != nil {
			t.Fatalf("bad golden row %q: %v", line, err)
		}
		if b != next {
			t.Fatalf("golden row for bucket %d, want %d", b, next)
		}
		next++
		p := math.Pow(10, float64(b)*0.02)
		for i, w := range ws {
			if got := CriticalValue(w, p, 20, 0.05); got != want[i] {
				t.Errorf("CriticalValue(w=%d, p=10^(%d*0.02)) = %d, golden %d", w, b, got, want[i])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Fatalf("golden grid ends at bucket %d, want -1", next-1)
	}
}

// closedFormPs spans the background probabilities the engine sweeps, from the
// kernel estimator's floor to the regime where nothing is significant.
var closedFormPs = []float64{1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.79, 0.99}

// checkQ3AgainstDP is the shared body of the table test and the fuzz target.
func checkQ3AgainstDP(t *testing.T, k, w int, p float64) {
	t.Helper()
	got, want := Q3(k, w, p), q3DP(k, w, p)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Q3(k=%d,w=%d,p=%g) = %.17g, DP %.17g (diff %.3g)", k, w, p, got, want, got-want)
	}
	if q2 := Q2(k, w, p); got > q2+1e-13 {
		t.Errorf("Q3(k=%d,w=%d,p=%g) = %.17g > Q2 = %.17g", k, w, p, got, q2)
	}
}

// TestQ3ClosedMatchesDP referees the closed form with the dynamic program it
// replaced. The DP costs O(w k^4), so beyond k = 10 it samples k (13, 17, 21,
// 25, and k = w up to w = 30; the golden grid covers the critical values of
// larger k end to end). -short keeps k <= 10 only.
func TestQ3ClosedMatchesDP(t *testing.T) {
	sampled := func(k, w int) bool {
		switch {
		case k <= 10:
			return true
		case testing.Short():
			return false
		case k <= 25:
			return k%4 == 1
		default:
			return k == w && w <= 30
		}
	}
	for _, w := range []int{1, 2, 3, 5, 10, 30, 50} {
		for k := 1; k <= w; k++ {
			if !sampled(k, w) {
				continue
			}
			for _, p := range closedFormPs {
				checkQ3AgainstDP(t, k, w, p)
			}
		}
	}
}

// FuzzQ3ClosedMatchesDP searches (k, w, p) for a point where the closed form
// leaves the dynamic program. w <= 40 and k <= 20 bound the DP to ~50 ms an
// execution.
func FuzzQ3ClosedMatchesDP(f *testing.F) {
	for _, w := range []uint8{1, 2, 3, 5, 10, 30, 40} {
		for _, k := range []uint8{0, 1, 2, 5, 20} {
			f.Add(k, w, closedFormPs[0])
			f.Add(k, w, closedFormPs[len(closedFormPs)-1])
		}
	}
	f.Add(uint8(4), uint8(30), 0.02)
	f.Add(uint8(3), uint8(5), 0.0)
	f.Add(uint8(3), uint8(5), 1.0)
	f.Fuzz(func(t *testing.T, k, w uint8, p float64) {
		if !(p >= 0 && p <= 1) { // also rejects NaN
			t.Skip()
		}
		wi := 1 + int(w)%40
		ki := int(k) % (min(wi, 20) + 1)
		checkQ3AgainstDP(t, ki, wi, p)
	})
}

// TestSharedGridAlphaMonteCarlo checks the guarantee the engine actually
// relies on: under a pure-background Bernoulli(p) stream of N = L*w trials,
// the probability that some window reaches the critical value served by the
// shared, ceil-quantised grid is at most alpha. The grid rounds p up to its
// bucket, so it may only be more conservative than CriticalValue(p). The
// margin is 3.3 binomial standard errors at rate alpha (a one-sided 0.05 %
// false alarm per case over the fixed seed) and also absorbs the error of the
// product-type extrapolation beyond L = 3, which TestTailMonteCarlo bounds.
func TestSharedGridAlphaMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation is slow")
	}
	const (
		L      = 20
		alpha  = 0.05
		trials = 20000
	)
	margin := 3.3 * math.Sqrt(alpha*(1-alpha)/trials)
	r := rand.New(rand.NewSource(7))
	for _, w := range []int{5, 50} {
		grid := Shared(w, L, alpha, 0.02)
		for _, p := range []float64{3.3e-4, 1.7e-3, 0.0123, 0.047, 0.13} {
			k := grid.At(p)
			if k > w {
				continue // never positive: the rate is exactly 0
			}
			if rate := mcTail(k, w, L*w, p, trials, r); rate > alpha+margin {
				t.Errorf("w=%d p=%g: P(S_w >= k_crit=%d) = %.4f by simulation, want <= alpha %.2f + margin %.4f",
					w, p, k, rate, alpha, margin)
			}
		}
	}
}
