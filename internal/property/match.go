package property

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// Matcher is a Filters list compiled for the encoded map AppendMap writes.
// The filters are sorted by key, as AppendMap sorts the pairs, so one walk
// over the encoding answers every filter without building the map: no key,
// string or map is allocated. The zero Matcher has no filters and accepts
// every well-formed map.
type Matcher struct {
	fs Filters
}

// NewMatcher compiles fs (AND semantics, as MatchAll). Sorted filters are
// kept as they are, so fs must not change afterwards.
func NewMatcher(fs Filters) Matcher {
	byKey := func(a, b Filter) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(fs, byKey) {
		fs = slices.Clone(fs)
		slices.SortStableFunc(fs, byKey)
	}
	return Matcher{fs}
}

// Empty reports whether the matcher has no filters.
func (m Matcher) Empty() bool { return len(m.fs) == 0 }

// Match reports whether the map encoded in b — all of b — satisfies every
// filter. It errors exactly where ConsumeMap would, or on trailing bytes, so a
// corrupt value is an error and never a verdict.
func (m Matcher) Match(b []byte) (bool, error) {
	n, rest, err := mapHeader(b)
	if err != nil {
		return false, err
	}
	ok, j, sorted := true, 0, true
	var prev string
	for i := uint64(0); i < n; i++ {
		k, v, after, err := viewPair(rest)
		if err != nil {
			return false, err
		}
		if i > 0 && k <= prev {
			sorted = false // not AppendMap's output: decide on the decoded map below
		}
		rest, prev = after, k
		for ; j < len(m.fs) && m.fs[j].Key < k; j++ {
			ok = false // a filtered key the map does not carry
		}
		for ; j < len(m.fs) && m.fs[j].Key == k; j++ {
			ok = ok && m.fs[j].MatchValue(v)
		}
	}
	if len(rest) != 0 {
		return false, fmt.Errorf("property: %d trailing bytes after map", len(rest))
	}
	if !sorted {
		mp, _, _ := ConsumeMap(b) // the last of repeated keys wins, as decoded
		return m.fs.MatchAll(mp), nil
	}
	return ok && j == len(m.fs), nil
}

// mapHeader reads a map's pair count, rejecting one the bytes cannot hold.
func mapHeader(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("property: truncated map header")
	}
	b = b[sz:]
	// Each entry encodes to at least 2 bytes (key length + value kind);
	// a larger declared count is corruption, rejected before allocating.
	if n > uint64(len(b))/2 {
		return 0, nil, fmt.Errorf("property: map declares %d entries in %d bytes", n, len(b))
	}
	return n, b, nil
}

// viewPair reads one key/value pair in place: both alias b.
func viewPair(b []byte) (string, Value, []byte, error) {
	k, rest, err := viewString(b)
	if err != nil {
		return "", Value{}, nil, err
	}
	v, rest, err := viewValue(rest)
	if err != nil {
		return "", Value{}, nil, err
	}
	return k, v, rest, nil
}
