package property

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := String("abc"); v.Kind() != KindString || v.Str() != "abc" {
		t.Errorf("String: got %v", v)
	}
	if v := Int(-42); v.Kind() != KindInt || v.I64() != -42 {
		t.Errorf("Int: got %v", v)
	}
	if v := Float(3.5); v.Kind() != KindFloat || v.F64() != 3.5 {
		t.Errorf("Float: got %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.B() {
		t.Errorf("Bool: got %v", v)
	}
	if (Value{}).Valid() {
		t.Error("zero Value should be invalid")
	}
}

func TestOfConversions(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{"x", String("x")},
		{7, Int(7)},
		{int32(8), Int(8)},
		{int64(-9), Int(-9)},
		{uint32(10), Int(10)},
		{1.5, Float(1.5)},
		{float32(2), Float(2)},
		{true, Bool(true)},
		{Int(3), Int(3)},
	}
	for _, c := range cases {
		if got := Of(c.in); !got.Equal(c.want) {
			t.Errorf("Of(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if Of(struct{}{}).Valid() {
		t.Error("Of(unsupported) should be invalid")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(1).Equal(Int(1)) {
		t.Error("Int(1) != Int(1)")
	}
	if Int(1).Equal(Float(1)) {
		t.Error("Int(1) should differ from Float(1)")
	}
	if String("a").Equal(String("b")) {
		t.Error("strings should differ")
	}
}

func TestValueCompareWithinKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAcrossKinds(t *testing.T) {
	// Cross-kind comparison orders by Kind so Compare is a total order.
	if String("z").Compare(Int(0)) >= 0 {
		t.Error("string should sort before int (kind order)")
	}
	if Int(5).Compare(String("a")) <= 0 {
		t.Error("int should sort after string")
	}
}

func TestValueStringer(t *testing.T) {
	cases := map[string]Value{
		`"hi"`:      String("hi"),
		"42":        Int(42),
		"1.5":       Float(1.5),
		"true":      Bool(true),
		"<invalid>": {},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return String(string(b))
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64())
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestValueEncodeRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		enc := AppendValue(nil, v)
		got, rest, err := ConsumeValue(enc)
		return err == nil && len(rest) == 0 && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareIsTotalOrderQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// antisymmetry
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// reflexivity / consistency with Equal
		if a.Compare(a) != 0 || (a.Compare(b) == 0) != equalForOrder(a, b) {
			return false
		}
		// transitivity of <=
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// equalForOrder mirrors Compare's notion of equality: NaN floats are the
// only case where Equal (bit comparison) and Compare can disagree.
func equalForOrder(a, b Value) bool {
	if a.Kind() == KindFloat && b.Kind() == KindFloat {
		return !(a.F64() < b.F64()) && !(a.F64() > b.F64())
	}
	return a.Equal(b)
}

func TestMapEncodeRoundTrip(t *testing.T) {
	m := Map{
		"name":  String("dset-1"),
		"size":  Int(1020 << 20),
		"ratio": Float(0.25),
		"dirty": Bool(false),
	}
	enc := AppendMap(nil, m)
	got, rest, err := ConsumeMap(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: err=%v rest=%d", err, len(rest))
	}
	if len(got) != len(m) {
		t.Fatalf("got %d entries, want %d", len(got), len(m))
	}
	for k, v := range m {
		if !got[k].Equal(v) {
			t.Errorf("key %q: got %v want %v", k, got[k], v)
		}
	}
}

func TestMapEncodeDeterministic(t *testing.T) {
	e1 := AppendMap(nil, Map{"b": Int(2), "a": Int(1), "c": Int(3)})
	e2 := AppendMap(nil, Map{"c": Int(3), "a": Int(1), "b": Int(2)})
	if !reflect.DeepEqual(e1, e2) {
		t.Error("map encoding not deterministic")
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	enc := AppendMap(nil, nil)
	got, rest, err := ConsumeMap(enc)
	if err != nil || len(rest) != 0 || len(got) != 0 {
		t.Fatalf("nil map round trip: %v %v %v", got, rest, err)
	}
}

func TestMapEncodeRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := make(Map)
		for i := 0; i < r.Intn(8); i++ {
			b := make([]byte, 1+r.Intn(10))
			r.Read(b)
			m[string(b)] = randomValue(r)
		}
		enc := AppendMap(nil, m)
		got, rest, err := ConsumeMap(enc)
		if err != nil || len(rest) != 0 || len(got) != len(m) {
			return false
		}
		for k, v := range m {
			g, ok := got[k]
			if !ok {
				return false
			}
			// Bit-level equality also covers NaN floats.
			if g.Kind() != v.Kind() || (v.Kind() == KindString && g.Str() != v.Str()) {
				return false
			}
			if v.Kind() != KindString && g.num != v.num {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsumeValueErrors(t *testing.T) {
	if _, _, err := ConsumeValue(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := ConsumeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("truncated scalar should error")
	}
	if _, _, err := ConsumeValue([]byte{99}); err == nil {
		t.Error("unknown kind should error")
	}
	if _, _, err := ConsumeValue([]byte{byte(KindString), 5, 'a'}); err == nil {
		t.Error("truncated string should error")
	}
}

func TestConsumeMapErrors(t *testing.T) {
	if _, _, err := ConsumeMap(nil); err == nil {
		t.Error("empty input should error")
	}
	// count says 1 entry but nothing follows
	if _, _, err := ConsumeMap([]byte{1}); err == nil {
		t.Error("truncated map should error")
	}
	// A length bomb — a tiny buffer declaring 2^56 entries — must be
	// rejected before allocation, not panic or OOM.
	bomb := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01}
	if _, _, err := ConsumeMap(bomb); err == nil {
		t.Error("length bomb should error")
	}
}

func TestFloatSpecialValues(t *testing.T) {
	inf := Float(math.Inf(1))
	if inf.F64() != math.Inf(1) {
		t.Error("inf round trip")
	}
	nan := Float(math.NaN())
	enc := AppendValue(nil, nan)
	got, _, err := ConsumeValue(enc)
	if err != nil || !math.IsNaN(got.F64()) {
		t.Error("NaN should round-trip through encoding")
	}
}
