package property

import (
	"fmt"
	"strings"
)

// Op is the comparison operator of a property filter. The paper's GTravel
// language defines EQ, IN and RANGE; multiple filters attached to the same
// traversal step compose with AND.
type Op uint8

const (
	// EQ requires the property to equal the single comparison value.
	EQ Op = iota + 1
	// IN requires the property to be a member of the comparison set.
	IN
	// RANGE requires lo <= property <= hi (two comparison values).
	RANGE
)

// String returns the GTravel spelling of the operator.
func (o Op) String() string {
	switch o {
	case EQ:
		return "EQ"
	case IN:
		return "IN"
	case RANGE:
		return "RANGE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Filter is one predicate over a property map. A Filter with a missing key
// never matches: the paper's filters only select entities that carry the
// attribute.
type Filter struct {
	Key  string
	Op   Op
	Args []Value
}

// NewFilter builds a filter, validating the operator arity. EQ takes one
// argument, RANGE exactly two (lo, hi), IN one or more.
func NewFilter(key string, op Op, args ...Value) (Filter, error) {
	f := Filter{Key: key, Op: op, Args: args}
	if err := f.Validate(); err != nil {
		return Filter{}, err
	}
	return f, nil
}

// Validate checks operator arity and argument validity.
func (f Filter) Validate() error {
	if f.Key == "" {
		return fmt.Errorf("property: filter with empty key")
	}
	for _, a := range f.Args {
		if !a.Valid() {
			return fmt.Errorf("property: filter %q has invalid argument", f.Key)
		}
	}
	switch f.Op {
	case EQ:
		if len(f.Args) != 1 {
			return fmt.Errorf("property: EQ filter %q needs 1 argument, got %d", f.Key, len(f.Args))
		}
	case IN:
		if len(f.Args) == 0 {
			return fmt.Errorf("property: IN filter %q needs at least 1 argument", f.Key)
		}
	case RANGE:
		if len(f.Args) != 2 {
			return fmt.Errorf("property: RANGE filter %q needs 2 arguments, got %d", f.Key, len(f.Args))
		}
		if f.Args[0].Kind() != f.Args[1].Kind() {
			return fmt.Errorf("property: RANGE filter %q bounds have different kinds", f.Key)
		}
		if f.Args[0].Compare(f.Args[1]) > 0 {
			return fmt.Errorf("property: RANGE filter %q has lo > hi", f.Key)
		}
	default:
		return fmt.Errorf("property: unknown filter op %d", f.Op)
	}
	return nil
}

// Match reports whether the property map satisfies the filter.
func (f Filter) Match(m Map) bool {
	v, ok := m[f.Key]
	return ok && f.MatchValue(v)
}

// MatchValue reports whether the value found under the filter's key
// satisfies it: the one definition of EQ, IN and RANGE that decoded maps,
// the vertex label and the encoded-value walk (Matcher) all share.
func (f Filter) MatchValue(v Value) bool {
	switch f.Op {
	case EQ:
		return v.Equal(f.Args[0])
	case IN:
		for _, a := range f.Args {
			if v.Equal(a) {
				return true
			}
		}
		return false
	case RANGE:
		return v.Kind() == f.Args[0].Kind() &&
			v.Compare(f.Args[0]) >= 0 && v.Compare(f.Args[1]) <= 0
	}
	return false
}

// String renders the filter in GTravel-like syntax, e.g.
// ("start_ts", RANGE, [10, 20]).
func (f Filter) String() string {
	var args []string
	for _, a := range f.Args {
		args = append(args, a.String())
	}
	return fmt.Sprintf("(%q, %s, [%s])", f.Key, f.Op, strings.Join(args, ", "))
}

// Filters is an AND-composed list of filters, as attached to one traversal
// step.
type Filters []Filter

// MatchAll reports whether the map satisfies every filter (AND semantics;
// an empty list matches everything).
func (fs Filters) MatchAll(m Map) bool {
	for _, f := range fs {
		if !f.Match(m) {
			return false
		}
	}
	return true
}

// Validate validates every filter in the list.
func (fs Filters) Validate() error {
	for _, f := range fs {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AppendFilter appends the binary encoding of f to b.
func AppendFilter(b []byte, f Filter) []byte {
	b = appendString(b, f.Key)
	b = append(b, byte(f.Op))
	b = append(b, byte(len(f.Args)))
	for _, a := range f.Args {
		b = AppendValue(b, a)
	}
	return b
}

// ConsumeFilter decodes one filter from the front of b.
func ConsumeFilter(b []byte) (Filter, []byte, error) {
	key, b, err := consumeString(b)
	if err != nil {
		return Filter{}, nil, err
	}
	if len(b) < 2 {
		return Filter{}, nil, fmt.Errorf("property: truncated filter")
	}
	op := Op(b[0])
	n := int(b[1])
	b = b[2:]
	f := Filter{Key: key, Op: op, Args: make([]Value, 0, n)}
	for i := 0; i < n; i++ {
		var v Value
		v, b, err = ConsumeValue(b)
		if err != nil {
			return Filter{}, nil, err
		}
		f.Args = append(f.Args, v)
	}
	return f, b, nil
}

// AppendFilters appends the binary encoding of fs to b.
func AppendFilters(b []byte, fs Filters) []byte {
	b = append(b, byte(len(fs)))
	for _, f := range fs {
		b = AppendFilter(b, f)
	}
	return b
}

// ConsumeFilters decodes a filter list from the front of b.
func ConsumeFilters(b []byte) (Filters, []byte, error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("property: truncated filter list")
	}
	n := int(b[0])
	b = b[1:]
	if n == 0 {
		return nil, b, nil
	}
	fs := make(Filters, 0, n)
	for i := 0; i < n; i++ {
		f, rest, err := ConsumeFilter(b)
		if err != nil {
			return nil, nil, err
		}
		fs = append(fs, f)
		b = rest
	}
	return fs, b, nil
}
