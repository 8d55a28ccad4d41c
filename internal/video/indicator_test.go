package video

import (
	"math/rand"
	"reflect"
	"testing"
)

// refFromIndicator is FromIndicator as a bool-by-bool loop, the form it had
// before it scanned runs with memchr; kept as the referee.
func refFromIndicator(ind []bool) IntervalSet {
	var out []Interval
	start := -1
	for i, b := range ind {
		switch {
		case b && start < 0:
			start = i
		case !b && start >= 0:
			out = append(out, Interval{Start: start, End: i - 1})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Interval{Start: start, End: len(ind) - 1})
	}
	return IntervalSet{ivs: out}
}

// checkFromIndicator compares FromIndicator with the referee on one input:
// the same intervals (nil for no run, as the engine's Results compare them
// with reflect.DeepEqual) in canonical form.
func checkFromIndicator(t *testing.T, name string, ind []bool) {
	t.Helper()
	got, want := FromIndicator(ind), refFromIndicator(ind)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FromIndicator(%v) = %v, reference %v", name, ind, got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestFromIndicatorMatchesReference covers the shapes a memchr scan can get
// wrong — no input, no run, one run over everything, runs of one, runs
// touching either end or both — at lengths around the word sizes a vector
// memchr steps by, plus random indicators of every density.
func TestFromIndicatorMatchesReference(t *testing.T) {
	checkFromIndicator(t, "nil", nil)
	checkFromIndicator(t, "empty", []bool{})
	for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000} {
		shapes := map[string]func(i int) bool{
			"all-false":       func(int) bool { return false },
			"all-true":        func(int) bool { return true },
			"alternating":     func(i int) bool { return i%2 == 0 },
			"alternating-odd": func(i int) bool { return i%2 == 1 },
			"both-ends":       func(i int) bool { return i < 3 || i >= n-3 },
			"first-only":      func(i int) bool { return i == 0 },
			"last-only":       func(i int) bool { return i == n-1 },
			"middle-run":      func(i int) bool { return i >= n/3 && i < 2*n/3 },
		}
		for name, f := range shapes {
			ind := make([]bool, n)
			for i := range ind {
				ind[i] = f(i)
			}
			checkFromIndicator(t, name, ind)
		}
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		ind := make([]bool, r.Intn(300))
		p := r.Float64()
		for i := range ind {
			ind[i] = r.Float64() < p
		}
		checkFromIndicator(t, "random", ind)
	}
}

// FuzzFromIndicatorMatchesReference runs the comparison over fuzzed
// indicators, one bit of each input byte per unit.
func FuzzFromIndicatorMatchesReference(f *testing.F) {
	for _, s := range [][]byte{nil, {0}, {1}, {0xff, 0xff}, {0x55, 0xaa, 0x0f}, {0x81}} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ind := make([]bool, len(data))
		for i, b := range data {
			ind[i] = b&1 == 1
		}
		checkFromIndicator(t, "fuzz", ind)
	})
}
