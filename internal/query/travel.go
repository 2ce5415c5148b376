// Package query implements the GTravel traversal language of §III: an
// iterative, chainable query builder whose methods return the receiver so
// traversals read as one expression, e.g. the paper's data-auditing query:
//
//	q := query.V(userA).
//		E("run").Ea("start_ts", property.RANGE, ts, te).
//		E("read").Va("type", property.EQ, "text").Rtn()
//	plan, err := q.Compile()
//
// A Travel compiles into a Plan — the wire-portable, validated step list the
// traversal engines execute. The package also provides Reference, a
// single-threaded oracle evaluator used to cross-check every distributed
// engine in tests.
package query

import (
	"errors"
	"fmt"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// Travel is a GTravel query under construction. Builder methods record the
// first error encountered and make every later call a no-op, so call sites
// only check the error once, at Compile.
type Travel struct {
	steps []Step
	err   error
}

// V starts a traversal from an explicit set of source vertices, mirroring
// GTravel.v(). With no arguments the traversal starts from every vertex
// (filtered by subsequent Va calls), as in the paper's provenance example.
func V(ids ...model.VertexID) *Travel {
	t := &Travel{}
	t.steps = append(t.steps, Step{SourceIDs: ids})
	return t
}

// VLabel starts a traversal from every vertex with the given label, using
// the store's by-label namespace index rather than a full scan.
func VLabel(label string) *Travel {
	t := &Travel{}
	if label == "" {
		t.err = errors.New("query: VLabel with empty label")
	}
	t.steps = append(t.steps, Step{SourceLabel: label})
	return t
}

func (t *Travel) fail(err error) *Travel {
	if t.err == nil {
		t.err = err
	}
	return t
}

func (t *Travel) last() *Step { return &t.steps[len(t.steps)-1] }

// E appends a traversal step that follows edges with the given label,
// mirroring GTravel.e().
func (t *Travel) E(label string) *Travel {
	if t.err != nil {
		return t
	}
	if label == "" {
		return t.fail(errors.New("query: E with empty edge label"))
	}
	t.steps = append(t.steps, Step{EdgeLabel: label})
	return t
}

// Va adds a vertex property filter to the current step, mirroring
// GTravel.va(). Multiple filters on one step compose with AND. Values are
// native Go scalars (string, int, int64, float64, bool).
func (t *Travel) Va(key string, op property.Op, vals ...any) *Travel {
	if t.err != nil {
		return t
	}
	f, err := newFilter(key, op, vals)
	if err != nil {
		return t.fail(err)
	}
	t.last().VertexFilters = append(t.last().VertexFilters, f)
	return t
}

// Ea adds an edge property filter to the current step, mirroring
// GTravel.ea(). It is only meaningful after E.
func (t *Travel) Ea(key string, op property.Op, vals ...any) *Travel {
	if t.err != nil {
		return t
	}
	if len(t.steps) == 1 {
		return t.fail(errors.New("query: Ea before any E step"))
	}
	f, err := newFilter(key, op, vals)
	if err != nil {
		return t.fail(err)
	}
	t.last().EdgeFilters = append(t.last().EdgeFilters, f)
	return t
}

// Rtn marks the current step's working set for return, mirroring
// GTravel.rtn(): the vertices at this point are returned to the user, but
// only those whose resulting traversals reach the end of the call chain.
func (t *Travel) Rtn() *Travel {
	if t.err != nil {
		return t
	}
	t.last().Rtn = true
	return t
}

func newFilter(key string, op property.Op, vals []any) (property.Filter, error) {
	args := make([]property.Value, len(vals))
	for i, v := range vals {
		args[i] = property.Of(v)
	}
	return property.NewFilter(key, op, args...)
}

// Compile validates the traversal and freezes it into an executable Plan.
func (t *Travel) Compile() (*Plan, error) {
	if t.err != nil {
		return nil, t.err
	}
	p := &Plan{Steps: append([]Step(nil), t.steps...)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.compile()
	return p, nil
}

// Plan is a validated, immutable traversal: step 0 selects sources, each
// later step follows one edge label with optional edge and vertex filters.
type Plan struct {
	Steps []Step

	// Each step's predicates compiled over the encoded values, once per
	// plan by Compile and DecodePlan.
	compiled []compiledStep
}

type compiledStep struct {
	vertex model.VertexMatcher
	edge   property.Matcher
}

func (p *Plan) compile() {
	p.compiled = make([]compiledStep, len(p.Steps))
	for i, s := range p.Steps {
		p.compiled[i] = compiledStep{compileVertex(s), property.NewMatcher(s.EdgeFilters)}
	}
}

// VertexMatcher returns step i's vertex predicate over an encoded vertex: its
// source label, if any, and VertexMatches over its filters.
func (p *Plan) VertexMatcher(i int) *model.VertexMatcher { return &p.compiled[i].vertex }

// EdgeMatcher returns step i's edge predicate over an encoded edge value.
func (p *Plan) EdgeMatcher(i int) property.Matcher { return p.compiled[i].edge }

// Step is one hop of a Plan. For step 0, EdgeLabel is empty and exactly one
// of SourceIDs / SourceLabel / neither (full scan) selects the seeds.
type Step struct {
	// EdgeLabel is the edge type this step follows (empty on step 0).
	EdgeLabel string
	// EdgeFilters are AND-composed predicates on edge properties.
	EdgeFilters property.Filters
	// VertexFilters are AND-composed predicates on the vertices reached.
	VertexFilters property.Filters
	// SourceIDs seeds step 0 with explicit vertices.
	SourceIDs []model.VertexID
	// SourceLabel seeds step 0 with every vertex of one label.
	SourceLabel string
	// Rtn marks this step's surviving vertices for return.
	Rtn bool
}

// Validate checks structural invariants of the plan.
func (p *Plan) Validate() error {
	if len(p.Steps) == 0 {
		return errors.New("query: empty plan")
	}
	s0 := p.Steps[0]
	if s0.EdgeLabel != "" || len(s0.EdgeFilters) != 0 {
		return errors.New("query: step 0 cannot follow edges")
	}
	if len(s0.SourceIDs) > 0 && s0.SourceLabel != "" {
		return errors.New("query: step 0 has both id and label sources")
	}
	for i, s := range p.Steps {
		if i > 0 && s.EdgeLabel == "" {
			return fmt.Errorf("query: step %d has no edge label", i)
		}
		if i > 0 && (len(s.SourceIDs) > 0 || s.SourceLabel != "") {
			return fmt.Errorf("query: step %d has sources", i)
		}
		if err := s.EdgeFilters.Validate(); err != nil {
			return fmt.Errorf("query: step %d: %w", i, err)
		}
		if err := s.VertexFilters.Validate(); err != nil {
			return fmt.Errorf("query: step %d: %w", i, err)
		}
	}
	return nil
}

// NumSteps returns the number of steps, counting the source step.
func (p *Plan) NumSteps() int { return len(p.Steps) }

// HasExplicitRtn reports whether any step carries an rtn() mark.
func (p *Plan) HasExplicitRtn() bool {
	for _, s := range p.Steps {
		if s.Rtn {
			return true
		}
	}
	return false
}

// Returned reports whether step i's survivors are part of the result set.
// When no step is explicitly marked, the final step is returned — the
// conventional "return the destination vertices" behaviour.
func (p *Plan) Returned(i int) bool {
	if p.HasExplicitRtn() {
		return p.Steps[i].Rtn
	}
	return i == len(p.Steps)-1
}

// String renders the plan in GTravel-like syntax for logs and CLIs.
func (p *Plan) String() string {
	out := "GTravel"
	for i, s := range p.Steps {
		if i == 0 {
			switch {
			case len(s.SourceIDs) > 0:
				out += fmt.Sprintf(".v(%d ids)", len(s.SourceIDs))
			case s.SourceLabel != "":
				out += fmt.Sprintf(".v(label=%s)", s.SourceLabel)
			default:
				out += ".v()"
			}
		} else {
			out += fmt.Sprintf(".e(%q)", s.EdgeLabel)
		}
		for _, f := range s.EdgeFilters {
			out += ".ea" + f.String()
		}
		for _, f := range s.VertexFilters {
			out += ".va" + f.String()
		}
		if s.Rtn {
			out += ".rtn()"
		}
	}
	return out
}
