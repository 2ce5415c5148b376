package query

import (
	"slices"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// LabelKey is the reserved filter key that matches a vertex's type label
// rather than a stored property. The paper's provenance query filters
// va('type', EQ, 'Execution'); with our explicit vertex labels that is
// written Va(query.LabelKey, property.EQ, "Execution").
const LabelKey = "label"

// VertexMatches applies a step's vertex filters to a decoded vertex,
// resolving the reserved LabelKey against the vertex label. The engines run
// the same predicate compiled over the encoded value (Plan.VertexMatcher);
// the reference evaluator and the tests that hold the two together use this.
func VertexMatches(v model.Vertex, fs property.Filters) bool {
	for _, f := range fs {
		if f.Key == LabelKey {
			if !f.MatchValue(property.String(v.Label)) {
				return false
			}
		} else if !f.Match(v.Props) {
			return false
		}
	}
	return true
}

// compileVertex compiles one step's vertex predicate: filters on LabelKey go
// to the label, the rest to the stored properties. Step 0 also carries its
// source label. A plan is compiled on every server it reaches, so a filter
// list that needs no split is shared, not copied.
func compileVertex(s Step) model.VertexMatcher {
	onLabel, props := property.Filters(nil), s.VertexFilters
	if slices.ContainsFunc(props, func(f property.Filter) bool { return f.Key == LabelKey }) {
		props = nil
		for _, f := range s.VertexFilters {
			if f.Key == LabelKey {
				onLabel = append(onLabel, f)
			} else {
				props = append(props, f)
			}
		}
	}
	return model.VertexMatcher{Label: s.SourceLabel, OnLabel: onLabel, Props: property.NewMatcher(props)}
}
