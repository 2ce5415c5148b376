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
	var order, taken []Key // every new key as it went in; an early Keys() kept
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
		if i == 5000 {
			taken = s.Keys()
		}
	}
	for k := range ref {
		if !s.Has(k) {
			t.Fatalf("%+v lost", k)
		}
	}
	// Keys is the insertion order, and a slice taken early still reads as the
	// prefix it was, however the set grew since.
	if !slices.Equal(s.Keys(), order) {
		t.Fatalf("Keys() is not the %d keys in the order they were added", len(order))
	}
	if len(taken) < 1000 || !slices.Equal(taken, order[:len(taken)]) {
		t.Fatalf("the %d keys taken at op 5000 changed under later adds", len(taken))
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
			size, room := len(s.pos), cap(s.keys)
			if allocs := testing.AllocsPerRun(1, func() { s.Reserve(n) }); allocs != 0 {
				t.Errorf("held %d: a second Reserve(%d) allocates", held, n)
			}
			for i := 0; i < n; i++ {
				checkAgainst(t, &s, ref, true, key(i))
			}
			if len(s.pos) != size || (held+n > smallKeys && cap(s.keys) != room) {
				t.Errorf("held %d: %d slots and room for %d keys became %d and %d under the %d keys reserved for", held, size, room, len(s.pos), cap(s.keys), n)
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
	if s.Reserve(0); s.pos != nil || s.keys != nil {
		t.Error("Reserve(0) on an empty set allocates")
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
}

// FuzzSetMatchesMap reads the input five bytes at a time as adds and
// membership checks over a small key space (so repeats, the zero key and
// several doublings all occur), each after a Reserve of the fifth byte's
// size, and compares every answer with a Go map.
func FuzzSetMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{0, 7, 0, 0x15, 3, 0, 7, 0, 0x2a, 0, 1, 7, 0, 0x15, 200, 1, 7, 0, 0, 0})
	seq := make([]byte, 0, 5*40)
	for i := 0; i < 40; i++ {
		seq = append(seq, 0, byte(i*37), byte(i), 0, byte(i%7*i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Set
		ref := map[Key]struct{}{}
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
			checkAgainst(t, &s, ref, b[0]&1 == 0, k)
		}
	})
}

// benchKeys is a frontier's worth of distinct keys with dense vertex ids.
func benchKeys(n int) []Key {
	r := rand.New(rand.NewSource(1))
	keys := make([]Key, n)
	for i, v := range r.Perm(n) {
		keys[i] = Key{Vertex: model.VertexID(v + 1), AncStep: -1, Dest: -1}
	}
	return keys
}

// BenchmarkAdd times one Add under the three conditions an outbox or a cache
// bucket meets — a new key into a table already at size, a repeated key, and
// a set grown from empty (doublings included, or reserved for at once) —
// beside the same loop over the map the set replaced. One op is one key.
func BenchmarkAdd(b *testing.B) {
	const n = 1 << 14
	keys, fresh := benchKeys(2 * n)[:n], benchKeys(2 * n)[n:]
	b.Run("miss/set", func(b *testing.B) {
		for i := 0; i < b.N; i += n / 4 {
			b.StopTimer()
			var s Set
			for _, k := range keys {
				s.Add(k)
			}
			b.StartTimer()
			for _, k := range fresh[:n/4] {
				s.Add(k)
			}
		}
	})
	b.Run("miss/map", func(b *testing.B) {
		for i := 0; i < b.N; i += n / 4 {
			b.StopTimer()
			m := make(map[Key]struct{})
			for _, k := range keys {
				m[k] = struct{}{}
			}
			b.StartTimer()
			for _, k := range fresh[:n/4] {
				if _, dup := m[k]; !dup {
					m[k] = struct{}{}
				}
			}
		}
	})
	b.Run("hit/set", func(b *testing.B) {
		var s Set
		for _, k := range keys {
			s.Add(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(keys[i%n])
		}
	})
	b.Run("hit/map", func(b *testing.B) {
		m := make(map[Key]struct{})
		for _, k := range keys {
			m[k] = struct{}{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, dup := m[keys[i%n]]; !dup {
				m[keys[i%n]] = struct{}{}
			}
		}
	})
	b.Run("grow/set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			var s Set
			for _, k := range keys {
				s.Add(k)
			}
		}
	})
	b.Run("reserve/set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			var s Set
			s.Reserve(n)
			for _, k := range keys {
				s.Add(k)
			}
		}
	})
	b.Run("grow/map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			m := make(map[Key]struct{})
			for _, k := range keys {
				if _, dup := m[k]; !dup {
					m[k] = struct{}{}
				}
			}
		}
	})
}
