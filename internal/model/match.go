package model

import "graphtrek/internal/property"

// VertexMatcher is one traversal step's vertex predicate compiled for the
// encoded value AppendVertexValue writes, so a hop answers it where the value
// lies — in a table's mapping or the read cache — without decoding it.
type VertexMatcher struct {
	// Label, when set, is the only vertex label accepted (a step-0 source
	// label: index-pushed seed candidates are label-agnostic).
	Label string
	// OnLabel are filters over the label itself; the query language's
	// reserved label key resolves here and never to a stored property.
	OnLabel property.Filters
	// Props are the filters over the stored properties.
	Props property.Matcher
}

// Empty reports whether the predicate tests nothing — no label, no label
// filter, no property filter — and so accepts every well-formed value. A
// step with an empty predicate is judged on its vertex's existence alone:
// gstore.Graph.ViewVertex hands over only well-formed values.
func (m *VertexMatcher) Empty() bool {
	return m.Label == "" && len(m.OnLabel) == 0 && m.Props.Empty()
}

// CheckVertexValue reports whether val is a well-formed vertex value: it
// errors exactly where DecodeVertexValue does, and allocates nothing on
// AppendVertexValue's output.
func CheckVertexValue(val []byte) error {
	_, err := (&VertexMatcher{}).Match(val)
	return err
}

// Match reports whether the vertex encoded in val satisfies the predicate.
// It errors exactly where DecodeVertexValue does, so a corrupt value is an
// error, never a vertex that exists.
func (m *VertexMatcher) Match(val []byte) (bool, error) {
	label, props, err := splitVertexValue(val)
	if err != nil {
		return false, err
	}
	ok, err := m.Props.Match(props)
	if err != nil || !ok || (m.Label != "" && string(label) != m.Label) {
		return false, err
	}
	lv := property.StringView(label)
	for _, f := range m.OnLabel {
		if !f.MatchValue(lv) {
			return false, nil
		}
	}
	return true, nil
}
