package frontier

import (
	"math/rand"
	"slices"
	"testing"

	"graphtrek/internal/model"
)

// checkAgainst applies one add or membership check to the set and to the map
// it replaces and fails on the first answer that differs.
func checkAgainst(t *testing.T, s *Set, ref map[Key]struct{}, add bool, k Key) {
	t.Helper()
	_, had := ref[k]
	if add {
		ref[k] = struct{}{}
		if got := s.Add(k); got == had {
			t.Fatalf("Add(%+v) = %v with the key present = %v", k, got, had)
		}
	} else if got := s.Has(k); got != had {
		t.Fatalf("Has(%+v) = %v, map says %v", k, got, had)
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d after %+v, map has %d", s.Len(), k, len(ref))
	}
}

func TestZeroKeyAndTags(t *testing.T) {
	var s Set
	ref := map[Key]struct{}{}
	keys := []Key{
		{},
		{Vertex: 7},
		{Vertex: 7, Anc: 1},
		{Vertex: 7, AncStep: 1},
		{Vertex: 7, Dest: 1},
		{Vertex: 7, AncStep: -1, Dest: -1},
		{Anc: 7},
		{Dest: -1},
	}
	for _, k := range keys {
		checkAgainst(t, &s, ref, false, k)
		checkAgainst(t, &s, ref, true, k)
	}
	for _, k := range keys {
		checkAgainst(t, &s, ref, true, k)
		checkAgainst(t, &s, ref, false, k)
	}
}

// TestGrowthBoundaries walks a set across every doubling up to 4 096 slots,
// checking after each insert that nothing inserted before it was lost and
// that the next key is still absent.
func TestGrowthBoundaries(t *testing.T) {
	var s Set
	ref := map[Key]struct{}{}
	key := func(i int) Key { return Key{Vertex: model.VertexID(i), AncStep: -1, Dest: -1} }
	for i := 1; i <= 3100; i++ {
		checkAgainst(t, &s, ref, true, key(i))
		checkAgainst(t, &s, ref, false, key(i+1))
		if n := len(s.pos); i&(i-1) == 0 || i == n || i == n/4*3 || i == n/4*3+1 {
			for j := 1; j <= i; j++ {
				checkAgainst(t, &s, ref, false, key(j))
			}
		}
	}
}

func TestSetMatchesMapSeeded(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var s Set
	ref := map[Key]struct{}{}
	var order []Key // every new key as it went in
	for i := 0; i < 100_000; i++ {
		// Dense vertex ids under a handful of tags, the zero key included:
		// about a third of the adds repeat an earlier key.
		k := Key{Vertex: model.VertexID(r.Intn(20_000))}
		if r.Intn(4) == 0 {
			k.Anc, k.AncStep, k.Dest = model.VertexID(r.Intn(3)), int32(r.Intn(3))-1, int32(r.Intn(3))-1
		}
		if r.Intn(500) == 0 {
			s.Reserve(r.Intn(3000)) // room only: no answer may change
		}
		if _, had := ref[k]; !had && r.Intn(5) > 0 {
			order = append(order, k)
			checkAgainst(t, &s, ref, true, k)
		} else {
			checkAgainst(t, &s, ref, had && r.Intn(5) > 0, k)
		}
		if r.Intn(1000) == 0 {
			from := r.Intn(len(order) + 1)
			if got := s.AppendKeys(nil, from); !slices.Equal(got, order[from:]) {
				t.Fatalf("op %d: AppendKeys(nil, %d) is not the keys added from the %d'th on", i, from, from)
			}
		}
	}
	for k := range ref {
		if !s.Has(k) {
			t.Fatalf("%+v lost", k)
		}
	}
	// AppendKeys is the insertion order, after whatever dst held.
	head := []Key{{Vertex: ^model.VertexID(0)}}
	if got := s.AppendKeys(head, 0); !slices.Equal(got[:1], head) || !slices.Equal(got[1:], order) {
		t.Fatalf("AppendKeys(head, 0) is not head and then the %d keys in the order they were added", len(order))
	}
}

// TestSetMatchesWideSet holds the set to the one it replaced, which stored
// every key whole (wideSet), over seeded runs in which keys share the set's
// first tag until a point drawn at random — never, at once, before the first
// table, mid-table, right after a Reserve — and carry one of a few tags after
// it. Every answer, the length and the keys in order must agree, and the set
// must hold one tag for as long as its keys do.
func TestSetMatchesWideSet(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	first := Key{Anc: 3, AncStep: 1, Dest: -1}
	for round := 0; round < 300; round++ {
		var s Set
		var w wideSet
		n := r.Intn(4000)
		mixFrom := r.Intn(n + 1) // the op from which other tags may come; n: none does
		for i := 0; i < n; i++ {
			k := first
			k.Vertex = model.VertexID(r.Intn(n/2 + 1))
			if i >= mixFrom && r.Intn(3) == 0 {
				k.Anc, k.AncStep, k.Dest = model.VertexID(r.Intn(2)), int32(r.Intn(3))-1, int32(r.Intn(2))-1
			}
			if r.Intn(100) == 0 {
				m := r.Intn(2000)
				s.Reserve(m)
				w.Reserve(m)
			}
			if r.Intn(4) == 0 {
				if got, want := s.Has(k), w.Has(k); got != want {
					t.Fatalf("round %d op %d: Has(%+v) = %v, the wide set says %v", round, i, k, got, want)
				}
			} else if got, want := s.Add(k), w.Add(k); got != want {
				t.Fatalf("round %d op %d: Add(%+v) = %v, the wide set says %v", round, i, k, got, want)
			}
			if s.Len() != w.Len() {
				t.Fatalf("round %d op %d: Len = %d, the wide set holds %d", round, i, s.Len(), w.Len())
			}
		}
		from := r.Intn(w.Len() + 1)
		if got := s.AppendKeys(nil, from); !slices.Equal(got, w.keys[from:]) {
			t.Fatalf("round %d: AppendKeys(nil, %d) differs from the wide set's keys", round, from)
		}
		oneTag := true
		for _, k := range w.keys {
			oneTag = oneTag && k.tag() == w.keys[0].tag()
		}
		if oneTag != (s.tags == nil) {
			t.Fatalf("round %d: the keys share one tag = %v, but the set keeps a tag column = %v", round, oneTag, s.tags != nil)
		}
	}
}

// TestReserveThenAddNeverGrows: after Reserve(n) the next n new keys go into
// the table Reserve made — from empty, from a small full table, and on top of
// keys already held — and a Reserve the table already covers is free. (A set
// of up to smallKeys keys has no table: its one allocation is the first Add's.)
func TestReserveThenAddNeverGrows(t *testing.T) {
	key := func(i int) Key { return Key{Vertex: model.VertexID(i), AncStep: -1, Dest: -1} }
	for _, held := range []int{0, 1, smallKeys, 100, 3000} {
		for _, n := range []int{1, smallKeys, 9, 12, 13, 767, 768, 769, 5000} {
			var s Set
			ref := map[Key]struct{}{}
			for i := 0; i < held; i++ {
				checkAgainst(t, &s, ref, true, key(-1-i))
			}
			s.Reserve(n)
			size, room := len(s.pos), cap(s.ids)
			if allocs := testing.AllocsPerRun(1, func() { s.Reserve(n) }); allocs != 0 {
				t.Errorf("held %d: a second Reserve(%d) allocates", held, n)
			}
			for i := 0; i < n; i++ {
				checkAgainst(t, &s, ref, true, key(i))
			}
			if len(s.pos) != size || (held+n > smallKeys && cap(s.ids) != room) {
				t.Errorf("held %d: %d slots and room for %d keys became %d and %d under the %d keys reserved for", held, size, room, len(s.pos), cap(s.ids), n)
			}
			if size > smallKeys && size/2/4*3 >= held+n {
				t.Errorf("held %d: Reserve(%d) made %d slots, twice what ¾ load needs", held, n, size)
			}
			for k := range ref {
				if !s.Has(k) {
					t.Fatalf("held %d, Reserve(%d): %+v lost", held, n, k)
				}
			}
		}
	}
	var s Set
	if s.Reserve(0); s.pos != nil || s.ids != nil {
		t.Error("Reserve(0) on an empty set allocates")
	}
	// A second tag after Reserve rebuilds the table in place: the column of
	// per-key tags is its one allocation.
	for _, n := range []int{smallKeys + 1, 100, 5000} {
		fill := func(second bool) {
			sinkSet = Set{}
			sinkSet.Reserve(n)
			for i := 0; i < n-1; i++ {
				sinkSet.Add(key(i))
			}
			if second {
				sinkSet.Add(Key{Vertex: 1, Anc: 7, AncStep: 0, Dest: 1})
			}
		}
		one := testing.AllocsPerRun(10, func() { fill(false) })
		if two := testing.AllocsPerRun(10, func() { fill(true) }); two != one+1 {
			t.Errorf("Reserve(%d): a second tag costs %.0f allocations, want 1 (the tags column)", n, two-one)
		}
	}
}

var (
	sinkSet Set
	sinkMap map[Key]struct{}
)

// TestSmallSetAllocs holds a set of a few keys — every outbox of a point
// query — to no more allocations than the map it replaced.
func TestSmallSetAllocs(t *testing.T) {
	for n := 1; n <= smallKeys; n++ {
		set := testing.AllocsPerRun(100, func() {
			sinkSet = Set{}
			for i := 1; i <= n; i++ {
				sinkSet.Add(Key{Vertex: model.VertexID(i)})
			}
		})
		ref := testing.AllocsPerRun(100, func() {
			sinkMap = make(map[Key]struct{})
			for i := 1; i <= n; i++ {
				sinkMap[Key{Vertex: model.VertexID(i)}] = struct{}{}
			}
		})
		if set > ref || set > 1 {
			t.Errorf("%d keys: set %.0f allocations, map %.0f", n, set, ref)
		}
	}
	if got := testing.AllocsPerRun(100, func() { sinkSet.Add(Key{Vertex: 1}) }); got != 0 {
		t.Errorf("Add of a present key allocates %.0f", got)
	}
	dst := make([]Key, smallKeys)
	if got := testing.AllocsPerRun(100, func() { dst = sinkSet.AppendKeys(dst[:0], 0) }); got != 0 {
		t.Errorf("AppendKeys into a slice with room allocates %.0f", got)
	}
}

// FuzzSetMatchesMap reads the input five bytes at a time as adds and
// membership checks over a small key space (so repeats, the zero key and
// several doublings all occur), each after a Reserve of the fifth byte's
// size, and compares every answer with a Go map. A key takes the set's first
// tag when its first byte says so, and its own otherwise, so the set switches
// from one tag to many wherever the input does: before its first table, right
// after a Reserve, or mid-table. At the end AppendKeys must give the keys
// added, in order, from every starting point.
func FuzzSetMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{0, 7, 0, 0x15, 3, 0, 7, 0, 0x2a, 0, 1, 7, 0, 0x15, 200, 1, 7, 0, 0, 0})
	seq := make([]byte, 0, 5*40)
	for i := 0; i < 40; i++ {
		seq = append(seq, 0, byte(i*37), byte(i), 0, byte(i%7*i))
	}
	f.Add(seq)
	// One tag for 30 keys, a held vertex under a second tag mid-table right
	// after a Reserve, then the first keys again, looked up and added.
	seq = nil
	for i := 0; i < 40; i++ {
		op := []byte{2, byte(i * 11), byte(i >> 3), 0x15, 0}
		switch {
		case i == 30:
			op = []byte{0, 11, 0, 0x2a, 100}
		case i > 30:
			op = []byte{2 | byte(i&1), byte((i - 31) * 11), 0, 0x15, 0}
		}
		seq = append(seq, op...)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Set
		ref := map[Key]struct{}{}
		var order []Key
		for ; len(b) >= 5; b = b[5:] {
			s.Reserve(int(b[4]))
			k := Key{
				Vertex:  model.VertexID(b[1]) | model.VertexID(b[2]&3)<<8,
				Anc:     model.VertexID(b[3] & 3),
				AncStep: int32(b[3]>>2&3) - 1,
				Dest:    int32(b[3]>>4&3) - 1,
			}
			if b[3]>>6 == 3 {
				k = Key{}
			}
			if b[0]&2 != 0 && len(order) > 0 {
				k.Anc, k.AncStep, k.Dest = order[0].Anc, order[0].AncStep, order[0].Dest
			}
			if _, had := ref[k]; !had && b[0]&1 == 0 {
				order = append(order, k)
			}
			checkAgainst(t, &s, ref, b[0]&1 == 0, k)
		}
		for from := 0; from <= len(order); from++ {
			if got := s.AppendKeys(nil, from); !slices.Equal(got, order[from:]) {
				t.Fatalf("AppendKeys(nil, %d) = %v, added %v", from, got, order[from:])
			}
		}
	})
}

// wideSet is the set as it was before it held tags apart: every key stored
// whole, 24 bytes, and hashed whole. It is the reference the set is held to.
type wideSet struct {
	keys []Key
	pos  []uint32 // index into keys plus one; 0 marks an empty slot; nil up to smallKeys keys
}

// hash mixes every field: vertex ids are dense and the tag often constant,
// hence two full multiplies.
func (k Key) hash() uint64 {
	tag := uint64(uint32(k.AncStep))<<32 | uint64(uint32(k.Dest))
	return mix(mix(uint64(k.Vertex)^0x9e3779b97f4a7c15, uint64(k.Anc)^0xbf58476d1ce4e5b9)^tag, 0x94d049bb133111eb)
}

func (s *wideSet) Len() int { return len(s.keys) }

func (s *wideSet) Has(k Key) bool {
	_, ok := s.find(k)
	return ok
}

func (s *wideSet) Add(k Key) bool {
	i, ok := s.find(k)
	if ok {
		return false
	}
	switch {
	case s.pos == nil && len(s.keys) < smallKeys:
		if s.keys == nil {
			s.keys = make([]Key, 0, smallKeys)
		}
		s.keys = append(s.keys, k)
		return true
	case len(s.keys) >= len(s.pos)/4*3:
		s.rehash(max(2*smallKeys, 2*len(s.pos)))
		i, _ = s.find(k)
	}
	s.keys = append(s.keys, k)
	s.pos[i] = uint32(len(s.keys))
	return true
}

func (s *wideSet) Reserve(n int) {
	if size := slotsFor(len(s.keys) + n); len(s.keys)+n > smallKeys && size > len(s.pos) {
		s.rehash(size)
	}
}

func (s *wideSet) find(k Key) (slot int, ok bool) {
	if s.pos == nil {
		return 0, slices.Contains(s.keys, k)
	}
	mask := len(s.pos) - 1
	for slot = int(k.hash()) & mask; s.pos[slot] != 0; slot = (slot + 1) & mask {
		if s.keys[s.pos[slot]-1] == k {
			return slot, true
		}
	}
	return slot, false
}

func (s *wideSet) rehash(size int) {
	s.keys = slices.Grow(s.keys, size/4*3-len(s.keys))
	s.pos = make([]uint32, size)
	for p, k := range s.keys {
		i := int(k.hash()) & (size - 1)
		for s.pos[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		s.pos[i] = uint32(p + 1)
	}
}

// benchKeys is a frontier's worth of distinct vertices with dense ids, under
// one tag, or under one of three when mixed.
func benchKeys(n int, mixed bool) []Key {
	r := rand.New(rand.NewSource(1))
	keys := make([]Key, n)
	for i, v := range r.Perm(n) {
		keys[i] = Key{Vertex: model.VertexID(v + 1), AncStep: -1, Dest: -1}
		if mixed {
			keys[i].Anc, keys[i].AncStep = model.VertexID(r.Intn(3)), int32(r.Intn(3))
		}
	}
	return keys
}

// adder is what the benchmark times: the set, or the wide set it replaced.
type adder interface {
	Add(Key) bool
	Reserve(int)
}

// BenchmarkAdd times one Add under the conditions an outbox or a cache
// bucket meets — a new key into a table already at size, a repeated key, a
// set grown from empty (doublings included, or reserved for at once), and an
// outbox's stream, which brings each vertex three times in a shuffled order —
// with every key under one tag and with three tags mixed, for the set and
// for the wide set it replaced. One op is one key.
func BenchmarkAdd(b *testing.B) {
	const n = 1 << 14
	for _, tags := range []struct {
		name  string
		mixed bool
	}{{"uniform", false}, {"mixed", true}} {
		all := benchKeys(2*n, tags.mixed)
		keys, fresh := all[:n], all[n:]
		stream := make([]Key, 0, 3*n)
		for range 3 {
			stream = append(stream, keys...)
		}
		rand.New(rand.NewSource(2)).Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for _, impl := range []struct {
			name string
			make func() adder
		}{{"set", func() adder { return new(Set) }}, {"wide", func() adder { return new(wideSet) }}} {
			b.Run(tags.name+"/miss/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i += n / 4 {
					b.StopTimer()
					s := impl.make()
					for _, k := range keys {
						s.Add(k)
					}
					b.StartTimer()
					for _, k := range fresh[:n/4] {
						s.Add(k)
					}
				}
			})
			b.Run(tags.name+"/hit/"+impl.name, func(b *testing.B) {
				s := impl.make()
				for _, k := range keys {
					s.Add(k)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Add(keys[i%n])
				}
			})
			b.Run(tags.name+"/grow/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += n {
					s := impl.make()
					for _, k := range keys {
						s.Add(k)
					}
				}
			})
			b.Run(tags.name+"/reserve/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += n {
					s := impl.make()
					s.Reserve(n)
					for _, k := range keys {
						s.Add(k)
					}
				}
			})
			b.Run(tags.name+"/outbox/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += len(stream) {
					s := impl.make()
					for _, k := range stream {
						s.Add(k)
					}
				}
			})
		}
	}
}
