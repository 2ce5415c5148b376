// Package frontier holds the tables behind the engine's per-entry
// bookkeeping: the dispatch outboxes' "sent already" sets and the
// traversal-affiliate cache's per-step buckets remember frontier entries for
// as long as their traversal lives, so they share one insert-only set (Set)
// of vertex ids under a tag held once per set outside rtn() plans; the
// scheduler's merge index maps a vertex to its buffered group in a table of
// the same hash and probe (Index).
package frontier

import (
	"math/bits"
	"slices"

	"graphtrek/internal/model"
)

// Key is one frontier entry: a vertex and the rtn() provenance tag it travels
// with. wire.Entry is this type, so a decoded batch is a slice of keys.
type Key struct {
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
	Dest    int32
}

// tag is a key without its vertex.
type tag struct {
	anc     model.VertexID
	ancStep int32
	dest    int32
}

func (k Key) tag() tag { return tag{k.Anc, k.AncStep, k.Dest} }

// smallKeys is how many keys a set holds before it builds a table: up to
// there a lookup compares them all, and a few keys cost one allocation.
const smallKeys = 8

// Set is an insert-only set of keys that remembers the order they came in.
// Outside rtn() plans every key of a set has one tag, so the set keeps its
// keys' vertices densely in one column and the tag once; a second tag adds a
// column of per-key tags. A power-of-two table of positions, probed linearly
// from the vertex's hash (the whole key's once tags are mixed), finds a key.
// Growing moves 4-byte positions, not keys. The zero value is an empty set;
// it is not safe for concurrent use.
type Set struct {
	ids  []model.VertexID // the keys' vertices in insertion order
	tag  tag              // every key's tag while tags is nil
	tags []tag            // tags[i] is ids[i]'s tag; nil while the set has one tag
	pos  []uint32         // index into ids plus one; 0 marks an empty slot; nil up to smallKeys keys
}

// Len reports the number of keys in the set.
func (s *Set) Len() int { return len(s.ids) }

// AppendKeys appends the keys from the from'th on, in insertion order, to dst.
func (s *Set) AppendKeys(dst []Key, from int) []Key {
	dst = slices.Grow(dst, len(s.ids)-from)
	for i := from; i < len(s.ids); i++ {
		dst = append(dst, s.at(i))
	}
	return dst
}

// at is the i'th key in insertion order.
func (s *Set) at(i int) Key {
	t := s.tag
	if s.tags != nil {
		t = s.tags[i]
	}
	return Key{s.ids[i], t.anc, t.ancStep, t.dest}
}

// Has reports whether k is in the set. A set of one tag holds no key of
// another.
func (s *Set) Has(k Key) bool {
	if s.tags == nil && k.tag() != s.tag {
		return false
	}
	_, ok := s.find(k)
	return ok
}

// Add inserts k and reports whether it was absent, in one probe.
func (s *Set) Add(k Key) bool {
	if t := k.tag(); s.tags == nil && t != s.tag {
		if len(s.ids) == 0 {
			s.tag = t
		} else { // a second tag: every key held gets its own, and the table the whole key's hash
			s.tags = make([]tag, len(s.ids), cap(s.ids))
			for i := range s.tags {
				s.tags[i] = s.tag
			}
			if s.pos != nil {
				s.rehash(len(s.pos))
			}
		}
	}
	i, ok := s.find(k)
	if ok {
		return false
	}
	switch {
	case s.pos == nil && len(s.ids) < smallKeys:
		if s.ids == nil {
			s.ids = make([]model.VertexID, 0, smallKeys)
		}
	case len(s.ids) >= len(s.pos)/4*3:
		s.rehash(max(2*smallKeys, 2*len(s.pos)))
		i, _ = s.find(k)
	}
	s.ids = append(s.ids, k.Vertex)
	if s.tags != nil {
		s.tags = append(s.tags, k.tag())
	}
	if s.pos != nil {
		s.pos[i] = uint32(len(s.ids))
	}
	return true
}

// Reserve makes room for n more keys at once, so that adding them grows
// nothing: Add's doubling reallocates columns and table over and over. (Up to
// smallKeys keys there is nothing to do: the first Add makes room for them.)
func (s *Set) Reserve(n int) {
	if size := slotsFor(len(s.ids) + n); len(s.ids)+n > smallKeys && size > len(s.pos) {
		s.rehash(size)
	}
}

// slotsFor is the smallest power-of-two table, of eight slots or more, that
// holds n keys at no more than ¾ load.
func slotsFor(n int) int {
	return 1 << bits.Len(uint((4*max(n, 6)+2)/3-1))
}

// find returns whether k is held and, if not, the table slot where its
// position belongs (when there is a table). While the set has one tag, k
// carries it, and the vertex alone is hashed and compared.
func (s *Set) find(k Key) (slot int, ok bool) {
	if s.pos == nil {
		for p, v := range s.ids {
			if v == k.Vertex && (s.tags == nil || s.tags[p] == k.tag()) {
				return 0, true
			}
		}
		return 0, false
	}
	mask := len(s.pos) - 1
	for slot = int(s.hash(k)) & mask; s.pos[slot] != 0; slot = (slot + 1) & mask {
		if p := s.pos[slot] - 1; s.ids[p] == k.Vertex && (s.tags == nil || s.tags[p] == k.tag()) {
			return slot, true
		}
	}
	return slot, false
}

// hash is k's hash in the table: the vertex's while the set has one tag, and
// the vertex's folded with the tag's once tags are mixed.
func (s *Set) hash(k Key) uint64 {
	v := uint64(k.Vertex)
	if s.tags != nil {
		v ^= mix(uint64(k.Anc)^0xbf58476d1ce4e5b9, uint64(uint32(k.AncStep))<<32|uint64(uint32(k.Dest))^0x94d049bb133111eb)
	}
	return hashVertex(model.VertexID(v))
}

// rehash builds a table of size slots over the keys held, in the old one when
// it has that size (a second tag rehashes every key), and makes room in the
// columns for the ¾ of them that may fill: they grow together.
func (s *Set) rehash(size int) {
	s.ids = slices.Grow(s.ids, size/4*3-len(s.ids))
	if s.tags != nil {
		s.tags = slices.Grow(s.tags, size/4*3-len(s.tags))
	}
	if len(s.pos) == size {
		clear(s.pos)
	} else {
		s.pos = make([]uint32, size)
	}
	for p := range s.ids {
		i := int(s.hash(s.at(p))) & (size - 1)
		for s.pos[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		s.pos[i] = uint32(p + 1)
	}
}

// mix folds a 128-bit product into the low bits a table indexes with.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashVertex is a vertex id's hash: ids are dense, hence a full multiply.
func hashVertex(v model.VertexID) uint64 {
	return mix(uint64(v)^0x9e3779b97f4a7c15, 0x94d049bb133111eb)
}
