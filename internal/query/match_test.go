package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// TestLabelFilterAllocs: a LabelKey filter compares the label where it is; it
// once built a one-entry property map for every vertex it checked.
func TestLabelFilterAllocs(t *testing.T) {
	v := model.Vertex{ID: 1, Label: "Execution", Props: property.Map{"model": property.String("A")}}
	lf, _ := property.NewFilter(LabelKey, property.IN, property.String("File"), property.String("Execution"))
	pf, _ := property.NewFilter("model", property.EQ, property.String("A"))
	fs := property.Filters{lf, pf}
	if !VertexMatches(v, fs) {
		t.Fatal("label + prop filters should match")
	}
	if n := testing.AllocsPerRun(100, func() { VertexMatches(v, fs) }); n != 0 {
		t.Errorf("VertexMatches with a label filter makes %.0f allocations, want 0", n)
	}
}

// The predicate generator: keys that are prefixes of each other, a stored
// property named like the reserved label key, values of every kind — a raw
// float -0 among them, which only a hand-written encoding can hold — and
// filters of every operator over them.
var (
	matchKeys   = []string{"a", "ab", "b", LabelKey}
	matchLabels = []string{"File", "Execution", "", "a"}
	negZero     = property.Value{} // stands for a float -0; appendRawValue writes it
)

func randValue(r *rand.Rand) property.Value {
	switch r.Intn(5) {
	case 0:
		return property.String([]string{"", "File", "Execution", "x", "xy"}[r.Intn(5)])
	case 1:
		return property.Int(int64(r.Intn(7) - 3))
	case 2:
		return property.Float([]float64{0, math.Copysign(0, -1), 1.5, -2}[r.Intn(4)])
	case 3:
		return property.Bool(r.Intn(2) == 0)
	default:
		return negZero
	}
}

// appendRawValue writes v as AppendValue does, except that negZero becomes a
// float whose bits are -0 (property.Float normalizes -0 away).
func appendRawValue(b []byte, v property.Value) []byte {
	if v == negZero {
		return binary.LittleEndian.AppendUint64(append(b, byte(property.KindFloat)), 1<<63)
	}
	return property.AppendValue(b, v)
}

func randFilter(r *rand.Rand, key string) property.Filter {
	arg := func() property.Value {
		for {
			if v := randValue(r); v != negZero {
				return v
			}
		}
	}
	switch r.Intn(3) {
	case 0:
		return property.Filter{Key: key, Op: property.EQ, Args: []property.Value{arg()}}
	case 1:
		args := []property.Value{arg()}
		for r.Intn(2) == 0 {
			if r.Intn(3) == 0 {
				args = append(args, args[0]) // duplicates
			} else {
				args = append(args, arg())
			}
		}
		return property.Filter{Key: key, Op: property.IN, Args: args}
	default:
		lo, hi := arg(), arg()
		for hi.Kind() != lo.Kind() {
			hi = arg()
		}
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		return property.Filter{Key: key, Op: property.RANGE, Args: []property.Value{lo, hi}}
	}
}

func randFilters(r *rand.Rand) property.Filters {
	var fs property.Filters
	for r.Intn(3) != 0 {
		fs = append(fs, randFilter(r, matchKeys[r.Intn(len(matchKeys))]))
	}
	return fs
}

// randStep is a step-0 predicate: a source label, sometimes, and filters.
func randStep(r *rand.Rand) Step {
	s := Step{VertexFilters: randFilters(r)}
	if r.Intn(3) == 0 {
		s.SourceLabel = matchLabels[r.Intn(len(matchLabels))]
	}
	return s
}

// randMap encodes a map over a random subset of the keys — sorted as
// AppendMap sorts, or now and then shuffled or with a key repeated, which
// only a hand-made or corrupt encoding has.
func randMap(r *rand.Rand, b []byte) []byte {
	keys := append([]string(nil), matchKeys...)
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:r.Intn(len(keys)+1)]
	switch r.Intn(6) {
	case 0: // keep the shuffle
	case 1:
		if len(keys) > 0 {
			keys = append(keys, keys[0])
		}
	default:
		slices.Sort(keys)
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = appendRawValue(append(b, k...), randValue(r))
	}
	return b
}

func randVertexValue(r *rand.Rand) []byte {
	label := matchLabels[r.Intn(len(matchLabels))]
	b := binary.AppendUvarint(nil, uint64(len(label)))
	return randMap(r, append(b, label...))
}

// corrupt breaks val the ways storage can: truncation, trailing bytes, an
// unknown kind, an oversized count — or flips a byte anywhere.
func corrupt(r *rand.Rand, val []byte) []byte {
	val = append([]byte(nil), val...)
	switch r.Intn(5) {
	case 0:
		return val[:r.Intn(len(val)+1)]
	case 1:
		return append(val, byte(r.Intn(256)))
	case 2:
		for i, c := range val {
			if c >= 1 && c <= 4 && r.Intn(2) == 0 {
				val[i] = byte(5 + r.Intn(250))
			}
		}
		return val
	case 3:
		return append(binary.AppendUvarint(nil, 1<<40), val...)
	default:
		if len(val) > 0 {
			val[r.Intn(len(val))] ^= byte(1 + r.Intn(255))
		}
		return val
	}
}

// SourceMatches is a step's full predicate on a decoded vertex — its source
// label, if any, and its vertex filters — as Plan.VertexMatcher compiles it.
func SourceMatches(v model.Vertex, s Step) bool {
	if s.SourceLabel != "" && v.Label != s.SourceLabel {
		return false
	}
	return VertexMatches(v, s.VertexFilters)
}

// checkVertex holds the compiled predicate to decode-then-match on one value:
// the same error-ness, and on success the same verdict. The check a read
// makes before an empty predicate, which reads nothing, errs the same way.
func checkVertex(t *testing.T, s Step, val []byte) {
	t.Helper()
	m := compileVertex(s)
	got, err := m.Match(val)
	v, decErr := model.DecodeVertexValue(1, val)
	if (err != nil) != (decErr != nil) {
		t.Fatalf("step %+v on %x: matcher error %v, decode error %v", s, val, err, decErr)
	}
	if chkErr := model.CheckVertexValue(val); (chkErr != nil) != (decErr != nil) {
		t.Fatalf("%x: check error %v, decode error %v", val, chkErr, decErr)
	}
	if empty := s.SourceLabel == "" && len(s.VertexFilters) == 0; m.Empty() != empty {
		t.Fatalf("step %+v: Empty() = %v, want %v", s, m.Empty(), empty)
	}
	if err == nil {
		if want := SourceMatches(v, s); got != want {
			t.Fatalf("step %+v on %x (%+v): matcher %v, decoded %v", s, val, v, got, want)
		}
	}
}

func checkEdge(t *testing.T, fs property.Filters, val []byte) {
	t.Helper()
	got, err := property.NewMatcher(fs).Match(val)
	e, decErr := model.DecodeEdgeValue(1, 2, "e", val)
	if (err != nil) != (decErr != nil) {
		t.Fatalf("filters %v on %x: matcher error %v, decode error %v", fs, val, err, decErr)
	}
	if err == nil {
		if want := fs.MatchAll(e.Props); got != want {
			t.Fatalf("filters %v on %x (%v): matcher %v, decoded %v", fs, val, e.Props, got, want)
		}
	}
}

func TestVertexMatcherAgainstDecode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	matched := 0
	for i := 0; i < 20_000; i++ {
		s, val := randStep(r), randVertexValue(r)
		checkVertex(t, s, val)
		m := compileVertex(s)
		if ok, _ := m.Match(val); ok {
			matched++
		}
		checkVertex(t, s, corrupt(r, val))
		checkVertex(t, Step{}, corrupt(r, val)) // the empty predicate
	}
	if matched < 1000 {
		t.Errorf("only %d of 20 000 predicates matched: the generator is too strict to test", matched)
	}
}

func TestEdgeMatcherAgainstDecode(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 20_000; i++ {
		fs, val := randFilters(r), randMap(r, nil)
		checkEdge(t, fs, val)
		checkEdge(t, fs, corrupt(r, val))
	}
}

// TestMatcherCases pins the cases named one by one, on values AppendVertexValue
// writes.
func TestMatcherCases(t *testing.T) {
	f := func(key string, op property.Op, args ...any) property.Filter {
		fl, err := newFilter(key, op, args)
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	v := model.Vertex{ID: 1, Label: "Execution", Props: property.Map{
		"a": property.Int(3), "ab": property.String("x"), LabelKey: property.String("File"),
		"z": property.Float(0),
	}}
	val := model.AppendVertexValue(nil, v)
	for _, tc := range []struct {
		name string
		s    Step
		want bool
	}{
		{"no filters", Step{}, true},
		{"EQ", Step{VertexFilters: property.Filters{f("a", property.EQ, 3)}}, true},
		{"EQ other kind", Step{VertexFilters: property.Filters{f("a", property.EQ, 3.0)}}, false},
		{"IN with duplicates", Step{VertexFilters: property.Filters{f("ab", property.IN, "y", "x", "x")}}, true},
		{"RANGE", Step{VertexFilters: property.Filters{f("a", property.RANGE, 1, 3)}}, true},
		{"RANGE across kinds", Step{VertexFilters: property.Filters{f("a", property.RANGE, 1.0, 5.0)}}, false},
		{"missing key", Step{VertexFilters: property.Filters{f("b", property.EQ, 1)}}, false},
		{"prefix key", Step{VertexFilters: property.Filters{f("ab", property.EQ, "x"), f("a", property.EQ, 3)}}, true},
		{"label key is the label", Step{VertexFilters: property.Filters{f(LabelKey, property.EQ, "Execution")}}, true},
		{"label key is not the property", Step{VertexFilters: property.Filters{f(LabelKey, property.EQ, "File")}}, false},
		{"source label", Step{SourceLabel: "Execution"}, true},
		{"other source label", Step{SourceLabel: "File"}, false},
		{"-0 against +0", Step{VertexFilters: property.Filters{f("z", property.EQ, math.Copysign(0, -1))}}, true},
		{"two filters, one key", Step{VertexFilters: property.Filters{f("a", property.RANGE, 0, 9), f("a", property.EQ, 4)}}, false},
	} {
		m := compileVertex(tc.s)
		got, err := m.Match(val)
		if err != nil || got != tc.want || SourceMatches(v, tc.s) != tc.want {
			t.Errorf("%s: matcher %v (%v), decoded %v, want %v", tc.name, got, err, SourceMatches(v, tc.s), tc.want)
		}
		if n := testing.AllocsPerRun(20, func() { m.Match(val) }); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", tc.name, n)
		}
	}
	// A raw -0 in storage is Equal to no +0 and Compare-equal to it, the
	// same on both paths.
	raw := binary.AppendUvarint(nil, 0)
	raw = appendRawValue(append(binary.AppendUvarint(raw, 1), 'z'), negZero)
	for _, s := range []Step{
		{VertexFilters: property.Filters{f("z", property.EQ, 0.0)}},
		{VertexFilters: property.Filters{f("z", property.RANGE, 0.0, 0.0)}},
	} {
		checkVertex(t, s, raw)
	}
}

func FuzzVertexMatcher(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(int64(i), randVertexValue(r))
	}
	f.Add(int64(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, val []byte) {
		checkVertex(t, randStep(rand.New(rand.NewSource(seed))), val)
	})
}

func FuzzEdgeMatcher(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 32; i++ {
		f.Add(int64(i), randMap(r, nil))
	}
	f.Add(int64(0), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, val []byte) {
		checkEdge(t, randFilters(rand.New(rand.NewSource(seed))), val)
	})
}
