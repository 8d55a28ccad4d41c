package scanstat

import (
	"fmt"
	"testing"
)

// The closed forms under their mathematical names, with argument checks, for
// the tests and benchmarks: production reaches them only through
// CriticalValue and the tables it builds (q2, tables.q3 and tables.tail
// document the formulas).

// Q2 returns P(S_w(2w) < k), the probability that no window of w consecutive
// trials among 2w Bernoulli(p) trials holds k or more successes.
func Q2(k, w int, p float64) float64 {
	if err := checkArgs(k, w, p); err != nil {
		panic(err)
	}
	if k > w {
		return 1 // a w-window cannot hold more than w successes
	}
	return q2(NewBinom(w, p), k)
}

// Q3 returns P(S_w(3w) < k) by Naus's closed form.
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

// Tail returns P(S_w(N) >= k | p, w, L) with N = L*w, L >= 1.
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

// NewCriticalValues builds a private table, outside Shared's registry.
func NewCriticalValues(w int, L, alpha, grid float64) *CriticalValues {
	checkLevel(w, alpha)
	if grid <= 0 {
		panic("scanstat: grid must be positive")
	}
	return newCriticalValues(w, L, alpha, grid)
}

// sinkFloat and sinkInt keep the compiler from eliding a benchmarked pure
// call.
var (
	sinkFloat float64
	sinkInt   int
)

func BenchmarkScanStatTail(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat = Tail(4+i%4, 50, 0.02, 20)
	}
}

func BenchmarkScanStatQ3(b *testing.B) {
	for _, k := range []int{5, 13, 21} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat = Q3(k, 50, 0.05)
			}
		})
	}
}

// BenchmarkCriticalTableBuild times building the default configuration's
// table for the frame (w = 50) and shot (w = 5) windows — the one-time cost
// a process pays on its first query at each.
func BenchmarkCriticalTableBuild(b *testing.B) {
	for _, w := range []int{50, 5} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInt += len(NewCriticalValues(w, 20, 0.05, 0.02).steps)
			}
		})
	}
}

// BenchmarkScanStatAt times a warm lookup at the background rates an
// estimator sits at.
func BenchmarkScanStatAt(b *testing.B) {
	c := Shared(50, 20, 0.05, 0.02)
	ps := make([]float64, 64)
	for i := range ps {
		ps[i] = 1e-4 * float64(1+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += c.At(ps[i%len(ps)])
	}
}
