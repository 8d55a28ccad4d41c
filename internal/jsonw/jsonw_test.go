package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// marshalMatches checks Value(v) against json.Marshal(v): the same bytes,
// or an error from both.
func marshalMatches(t *testing.T, v any) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, gerr := Value([]byte("prefix"), v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%#v: json.Marshal error %v, Value error %v", v, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Errorf("%#v: error %q, json.Marshal says %q", v, gerr, werr)
		}
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Errorf("%#v: Value wrote %s, json.Marshal %s", v, got[len("prefix"):], want)
	}
}

func TestValueMatchesMarshal(t *testing.T) {
	for _, v := range []any{
		nil, "", "plain", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\rbs\bff\f\x00\x1f\x7f",
		"\u2028\u2029", "bad \xff\xfe utf8 \xe2\x82", "\u00e9\u4e2d\U0001F600", `back\slash`,
		true, false, 0, -1, math.MaxInt64, int8(-8), int16(16), int32(-32), int64(math.MinInt64),
		uint(7), uint8(255), uint16(16), uint32(32), uint64(math.MaxUint64), uintptr(9),
		0.0, math.Copysign(0, -1), 1.0, -2.5, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 1.5e300, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 0.1, 1e-10,
		float32(0.1), float32(1e-7), float32(1e21), float32(math.MaxFloat32), float32(math.SmallestNonzeroFloat32),
		math.NaN(), math.Inf(1), math.Inf(-1), float32(math.Inf(-1)),
		[]int{1, 2}, map[string]any{"b": 1, "a": "<"}, struct{ X float64 }{3}, json.Number("12"),
		json.Number("nope"), struct{ C chan int }{}, make(chan int),
	} {
		marshalMatches(t, v)
	}
}

func FuzzStringMatchesMarshal(f *testing.F) {
	for _, s := range []string{"", "a<b>&c", "\x00\x1f\u2028", "\xff", "\xe2\x80", "\"\\/"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { marshalMatches(t, s) })
}

func FuzzFloatMatchesMarshal(f *testing.F) {
	for _, x := range []float64{0, 1e-7, 1e21, 5e-324, -1.5} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		marshalMatches(t, x)
		marshalMatches(t, float32(x))
	})
}
