// Package frontier holds the set behind the engine's per-entry bookkeeping:
// the dispatch outboxes' "sent already" sets and the traversal-affiliate
// cache's per-step buckets remember frontier entries for as long as their
// traversal lives, so they share one insert-only table of 24-byte keys.
package frontier

import (
	"math/bits"

	"graphtrek/internal/model"
)

// Key is one frontier entry: a vertex and the rtn() provenance tag it travels
// with. It has the layout of wire.Entry, so one converts to the other.
type Key struct {
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
	Dest    int32
}

// smallSlots is the table's first size, which may fill completely (a probe
// then compares at most smallSlots keys): a few keys cost one allocation.
const smallSlots = 8

// Set is an insert-only set of keys: a power-of-two table probed linearly
// from the key's hash. The zero value is an empty set; it is not safe for
// concurrent use.
type Set struct {
	slots []Key
	n     int  // keys held, the zero key included
	zero  bool // the zero Key is held: in slots it marks an empty slot
}

// Len reports the number of keys in the set.
func (s *Set) Len() int { return s.n }

// Has reports whether k is in the set.
func (s *Set) Has(k Key) bool {
	if k == (Key{}) {
		return s.zero
	}
	i, ok := s.find(k)
	return ok && s.slots[i] == k
}

// Add inserts k and reports whether it was absent, in one probe.
func (s *Set) Add(k Key) bool {
	if k == (Key{}) {
		if s.zero {
			return false
		}
		s.zero = true
		s.n++
		return true
	}
	i, ok := s.find(k)
	if ok && s.slots[i] == k {
		return false
	}
	if !ok || (len(s.slots) > smallSlots && s.n >= len(s.slots)/4*3) {
		s.grow()
		i, _ = s.find(k)
	}
	s.slots[i] = k
	s.n++
	return true
}

// find returns the slot holding k or else the empty slot where it belongs; ok
// is false when the table — unallocated, or small and full — has neither.
func (s *Set) find(k Key) (i int, ok bool) {
	mask := len(s.slots) - 1
	i = int(k.hash()) & mask
	for range s.slots {
		if c := s.slots[i]; c == k || c == (Key{}) {
			return i, true
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// grow doubles the table (or makes the first one) and re-inserts every key.
func (s *Set) grow() {
	old := s.slots
	s.slots = make([]Key, max(smallSlots, 2*len(old)))
	for _, k := range old {
		if k != (Key{}) {
			i, _ := s.find(k)
			s.slots[i] = k
		}
	}
}

// hash mixes every field into the low bits the table indexes with. Vertex ids
// are dense and the tag often constant, hence two full 128-bit multiplies.
func (k Key) hash() uint64 {
	hi, lo := bits.Mul64(uint64(k.Vertex)^0x9e3779b97f4a7c15, uint64(k.Anc)^0xbf58476d1ce4e5b9)
	tag := uint64(uint32(k.AncStep))<<32 | uint64(uint32(k.Dest))
	hi, lo = bits.Mul64(hi^lo^tag, 0x94d049bb133111eb)
	return hi ^ lo
}
