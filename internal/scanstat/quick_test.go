package scanstat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// params draws a random engine-relevant parameter point.
type params struct {
	W     int
	P     float64
	L     float64
	Alpha float64
}

// Generate implements quick.Generator.
func (params) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(params{
		W:     1 + r.Intn(36),
		P:     r.Float64() * 0.5,
		L:     1 + r.Float64()*50,
		Alpha: 0.001 + r.Float64()*0.2,
	})
}

func TestQuickTailIsProbability(t *testing.T) {
	f := func(pp params, k uint8) bool {
		v := Tail(int(k)%(pp.W+2), pp.W, pp.P, pp.L)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTailMonotoneInK(t *testing.T) {
	f := func(pp params) bool {
		prev := 1.1
		for k := 1; k <= pp.W; k++ {
			v := Tail(k, pp.W, pp.P, pp.L)
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickCriticalValueIsMinimal(t *testing.T) {
	f := func(pp params) bool {
		k := CriticalValue(pp.W, pp.P, pp.L, pp.Alpha)
		if k < 1 || k > pp.W+1 {
			return false
		}
		if k <= pp.W && Tail(k, pp.W, pp.P, pp.L) > pp.Alpha {
			return false
		}
		if k > 1 && Tail(k-1, pp.W, pp.P, pp.L) <= pp.Alpha {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickQ2Q3Consistency(t *testing.T) {
	// Survival probabilities must nest: Q3 <= Q2 <= Q1 (more trials, more
	// chances to exceed the quota).
	f := func(pp params, kk uint8) bool {
		k := 1 + int(kk)%pp.W
		q1 := NewBinom(pp.W, pp.P).CDF(k - 1)
		q2 := Q2(k, pp.W, pp.P)
		q3 := Q3(k, pp.W, pp.P)
		return q3 <= q2+1e-9 && q2 <= q1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
