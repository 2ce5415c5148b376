// Package frontier holds the tables behind the engine's per-entry
// bookkeeping: the dispatch outboxes' "sent already" sets and the
// traversal-affiliate cache's per-step buckets remember frontier entries for
// as long as their traversal lives, so they share one insert-only set of
// 24-byte keys (Set); the scheduler's merge index maps a vertex to its
// buffered group in a table of the same hash and probe (Index).
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

// smallKeys is how many keys a set holds before it builds a table: up to
// there a lookup compares them all, and a few keys cost one allocation.
const smallKeys = 8

// Set is an insert-only set of keys that remembers the order they came in:
// the keys sit densely in one slice, and a power-of-two table of their
// positions, probed linearly from the key's hash, finds them. Growing moves
// 4-byte positions, not keys, and the slice is what an outbox sends. The
// zero value is an empty set; it is not safe for concurrent use.
type Set struct {
	keys []Key
	pos  []uint32 // index into keys plus one; 0 marks an empty slot; nil up to smallKeys keys
}

// Len reports the number of keys in the set.
func (s *Set) Len() int { return len(s.keys) }

// Keys returns the keys in insertion order. The slice is the set's own and
// must not be written; what it holds stays as it is while the set grows.
func (s *Set) Keys() []Key { return s.keys }

// Has reports whether k is in the set.
func (s *Set) Has(k Key) bool {
	_, ok := s.find(k)
	return ok
}

// Add inserts k and reports whether it was absent, in one probe.
func (s *Set) Add(k Key) bool {
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

// Reserve makes room for n more keys at once, so that adding them grows
// nothing: Add's doubling reallocates slice and table over and over. (Up to
// smallKeys keys there is nothing to do: the first Add makes room for them.)
func (s *Set) Reserve(n int) {
	if size := slotsFor(len(s.keys) + n); len(s.keys)+n > smallKeys && size > len(s.pos) {
		s.rehash(size)
	}
}

// slotsFor is the smallest power-of-two table, of eight slots or more, that
// holds n keys at no more than ¾ load.
func slotsFor(n int) int {
	return 1 << bits.Len(uint((4*max(n, 6)+2)/3-1))
}

// find returns whether k is held and, if not, the table slot where its
// position belongs (when there is a table).
func (s *Set) find(k Key) (slot int, ok bool) {
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

// rehash builds a table of size slots over the keys held, and makes room in
// the slice for the ¾ of them that may fill: the two grow together.
func (s *Set) rehash(size int) {
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

// mix folds a 128-bit product into the low bits a table indexes with.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash mixes every field: vertex ids are dense and the tag often constant,
// hence two full multiplies.
func (k Key) hash() uint64 {
	tag := uint64(uint32(k.AncStep))<<32 | uint64(uint32(k.Dest))
	return mix(mix(uint64(k.Vertex)^0x9e3779b97f4a7c15, uint64(k.Anc)^0xbf58476d1ce4e5b9)^tag, 0x94d049bb133111eb)
}
