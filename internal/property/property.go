// Package property implements the typed property values attached to the
// vertices and edges of a property graph, together with the filter
// predicates (EQ, IN, RANGE) that the GTravel language applies during a
// traversal step.
//
// Values are deliberately restricted to a small set of scalar kinds —
// strings, signed integers, floats and booleans — matching the metadata
// attributes the paper's use cases need (file names, sizes, timestamps,
// permissions, annotations). Every value is totally ordered within its
// kind, which is what RANGE filters and the sorted storage layout rely on.
package property

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"
)

// Kind enumerates the scalar types a property value may hold.
type Kind uint8

const (
	// KindInvalid is the zero Kind; no valid Value has it.
	KindInvalid Kind = iota
	// KindString holds an arbitrary UTF-8 string.
	KindString
	// KindInt holds a signed 64-bit integer (timestamps, sizes, ids).
	KindInt
	// KindFloat holds a 64-bit IEEE float.
	KindFloat
	// KindBool holds a boolean flag.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed scalar property value. The zero Value is
// invalid; construct values with String, Int, Float or Bool.
type Value struct {
	kind Kind
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
	str  string
}

// String returns a Value holding s.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int returns a Value holding i.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a Value holding f. Negative zero is normalized to positive
// zero so that Equal, Compare and the ordered index encoding agree on the
// pair (Compare already treats them as equal; distinct bit patterns would
// let an exact-match index lookup and a byte-range scan disagree).
func Float(f float64) Value {
	if f == 0 {
		f = 0
	}
	return Value{kind: KindFloat, num: math.Float64bits(f)}
}

// Bool returns a Value holding b.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Of converts a native Go scalar into a Value. Supported argument types are
// string, int, int32, int64, uint32, float64, float32 and bool; any other
// type yields an invalid Value.
func Of(v any) Value {
	switch x := v.(type) {
	case string:
		return String(x)
	case int:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case uint32:
		return Int(int64(x))
	case float32:
		return Float(float64(x))
	case float64:
		return Float(x)
	case bool:
		return Bool(x)
	case Value:
		return x
	default:
		return Value{}
	}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether the value holds one of the supported kinds.
func (v Value) Valid() bool { return v.kind != KindInvalid }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// I64 returns the integer payload; it is only meaningful for KindInt.
func (v Value) I64() int64 { return int64(v.num) }

// F64 returns the float payload; it is only meaningful for KindFloat.
func (v Value) F64() float64 { return math.Float64frombits(v.num) }

// B returns the boolean payload; it is only meaningful for KindBool.
func (v Value) B() bool { return v.num != 0 }

// String implements fmt.Stringer for debugging and CLI output.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindInt:
		return fmt.Sprintf("%d", v.I64())
	case KindFloat:
		return fmt.Sprintf("%g", v.F64())
	case KindBool:
		return fmt.Sprintf("%t", v.B())
	default:
		return "<invalid>"
	}
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind == KindString {
		return v.str == o.str
	}
	return v.num == o.num
}

// Compare orders v against o. Values of different kinds order by kind so
// that Compare is a total order over all values; within a kind the natural
// order applies. The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.str, o.str)
	case KindInt:
		a, b := v.I64(), o.I64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindFloat:
		a, b := v.F64(), o.F64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindBool:
		a, b := v.num, o.num
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	return 0
}

// Map is a set of named property values, as stored on a vertex or edge.
type Map map[string]Value

// Keys returns the sorted property names, for deterministic encoding.
func (m Map) Keys() []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func consumeString(b []byte) (string, []byte, error) {
	s, rest, err := viewString(b)
	return strings.Clone(s), rest, err
}

// viewString is consumeString without the copy: the string aliases b.
func viewString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("property: truncated string")
	}
	return StringView(b[sz : sz+int(n)]).str, b[sz+int(n):], nil
}

// StringView returns a String value over b's bytes without copying them. It
// is for comparing in place: the value is valid only while b is unchanged,
// and must not be kept.
func StringView(b []byte) Value {
	return Value{kind: KindString, str: unsafe.String(unsafe.SliceData(b), len(b))}
}

// AppendValue appends the binary encoding of v to b. The encoding is a one
// byte kind tag followed by the payload (uvarint-length string or fixed
// 8-byte little-endian scalar).
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindString:
		b = appendString(b, v.str)
	case KindInt, KindFloat, KindBool:
		b = binary.LittleEndian.AppendUint64(b, v.num)
	}
	return b
}

// AppendOrderedValue appends an order-preserving encoding of v to b: a one
// byte kind tag followed by a payload whose byte order matches Compare for
// every kind OrderComparable reports true for. Ints are big-endian with the
// sign bit flipped, floats use the IEEE-754 total-order bit trick, bools are
// a big-endian 0/1 word. Strings keep the uvarint-length prefix of
// AppendValue — prefix-free (required for exact-match scans) but not
// order-preserving across different lengths. Secondary indexes use this
// encoding so RANGE lookups over numeric keys become one bounded key-range
// scan.
func AppendOrderedValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindString:
		b = appendString(b, v.str)
	case KindInt:
		b = binary.BigEndian.AppendUint64(b, v.num^(1<<63))
	case KindFloat:
		bits := v.num
		if bits>>63 == 1 {
			bits = ^bits // negative: flip everything so magnitude order reverses
		} else {
			bits |= 1 << 63 // positive: above all negatives
		}
		b = binary.BigEndian.AppendUint64(b, bits)
	case KindBool:
		b = binary.BigEndian.AppendUint64(b, v.num)
	}
	return b
}

// OrderComparable reports whether AppendOrderedValue preserves Compare
// order for values of kind k, i.e. whether a byte-range scan over the
// encoding implements a RANGE filter exactly.
func OrderComparable(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// ConsumeValue decodes one value from the front of b, returning the value
// and the remaining bytes.
func ConsumeValue(b []byte) (Value, []byte, error) {
	v, rest, err := viewValue(b)
	v.str = strings.Clone(v.str)
	return v, rest, err
}

// viewValue is ConsumeValue without the copy: a string value aliases b.
func viewValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("property: empty value encoding")
	}
	k := Kind(b[0])
	b = b[1:]
	switch k {
	case KindString:
		s, rest, err := viewString(b)
		if err != nil {
			return Value{}, nil, err
		}
		return Value{kind: k, str: s}, rest, nil
	case KindInt, KindFloat, KindBool:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("property: truncated scalar")
		}
		return Value{kind: k, num: binary.LittleEndian.Uint64(b)}, b[8:], nil
	default:
		return Value{}, nil, fmt.Errorf("property: unknown kind %d", k)
	}
}

// AppendMap appends the binary encoding of m to b: a uvarint count followed
// by sorted key/value pairs. Sorting keeps the encoding deterministic, which
// the storage layer and tests rely on.
func AppendMap(b []byte, m Map) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for _, k := range m.Keys() {
		b = appendString(b, k)
		b = AppendValue(b, m[k])
	}
	return b
}

// ConsumeMap decodes a property map from the front of b.
func ConsumeMap(b []byte) (Map, []byte, error) {
	n, b, err := mapHeader(b)
	if err != nil || n == 0 {
		return nil, b, err
	}
	m := make(Map, n)
	for i := uint64(0); i < n; i++ {
		k, v, rest, err := viewPair(b)
		if err != nil {
			return nil, nil, err
		}
		v.str = strings.Clone(v.str)
		m[strings.Clone(k)] = v
		b = rest
	}
	return m, b, nil
}
