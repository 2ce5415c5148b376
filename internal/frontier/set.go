// Package frontier holds the tables behind the engine's per-entry
// bookkeeping: the dispatch outboxes' "sent already" sets and the
// traversal-affiliate cache's per-step buckets remember frontier entries for
// as long as their traversal lives, so they share one insert-only set (Set)
// of vertex ids under a tag held once per set outside rtn() plans. A frontier
// batch is a Batch, a run of keys in that same layout, from the outbox that
// takes it to the scheduler that queues it. The scheduler's merge index maps
// a vertex to its buffered group in a table of the same hash and probe
// (Index).
package frontier

import (
	"math/bits"

	"graphtrek/internal/model"
)

// Key is one frontier entry: a vertex and the rtn() provenance tag it travels
// with.
type Key struct {
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
	Dest    int32
}

// Tag is a key without its vertex: the most recent rtn()-marked ancestor, the
// step it was marked at, and the server awaiting its end-of-chain signal.
type Tag struct {
	Anc     model.VertexID
	AncStep int32
	Dest    int32
}

// Tag is the key's tag.
func (k Key) Tag() Tag { return Tag{k.Anc, k.AncStep, k.Dest} }

// Key is the key of v under the tag.
func (t Tag) Key(v model.VertexID) Key { return Key{v, t.Anc, t.AncStep, t.Dest} }

// Batch is a run of keys in a set's layout: a column of vertex ids and the
// tag they share, or, when their tags differ, a column of per-key tags beside
// it. It is what a frontier batch is on every hop — taken from an outbox,
// carried by a wire.Message, admitted by the cache and queued by the
// scheduler — and once handed over it is read-only: whoever holds one may
// share it, so nobody writes into its columns.
type Batch struct {
	IDs  []model.VertexID
	Tag  Tag   // every key's tag while Tags is nil, and zero once it is not
	Tags []Tag // Tags[i] is IDs[i]'s tag; nil while the keys share Tag
}

// Append adds k at the end of a batch being built, under the set's rule (see
// retag). It never writes into a column taken from a set or a decoded
// message: those have no room past their end.
func (b *Batch) Append(k Key) {
	b.retag(k.Tag())
	b.push(k)
}

// retag readies the batch for a key of tag t: the tag once while every key
// shares it, and from the first key that does not, a column of per-key tags
// with the id column's room. It reports whether the keys went over to that
// column.
func (b *Batch) retag(t Tag) bool {
	switch {
	case b.Tags != nil || t == b.Tag:
		return false
	case len(b.IDs) == 0:
		b.Tag = t
		return false
	}
	b.Tags = make([]Tag, len(b.IDs), cap(b.IDs))
	for i := range b.Tags {
		b.Tags[i] = b.Tag
	}
	b.Tag = Tag{}
	return true
}

// push adds k's vertex, and its tag when the batch has a tag column; retag
// must have readied the batch for k's tag.
func (b *Batch) push(k Key) {
	b.IDs = append(b.IDs, k.Vertex)
	if b.Tags != nil {
		b.Tags = append(b.Tags, k.Tag())
	}
}

// Len reports the number of keys in the batch.
func (b Batch) Len() int { return len(b.IDs) }

// TagAt is the i'th key's tag.
func (b Batch) TagAt(i int) Tag {
	if b.Tags != nil {
		return b.Tags[i]
	}
	return b.Tag
}

// At is the i'th key.
func (b Batch) At(i int) Key { return b.TagAt(i).Key(b.IDs[i]) }

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
	keys Batch    // the keys in insertion order
	pos  []uint32 // index into keys plus one; 0 marks an empty slot; nil up to smallKeys keys
}

// Len reports the number of keys in the set.
func (s *Set) Len() int { return len(s.keys.IDs) }

// Batch is the run of keys from the from'th on, in insertion order, as the
// set's own columns: no key is copied. The set never writes a position it
// has filled — it only appends past the end, and growing moves the columns
// to new arrays — so the run stays as it is for as long as anyone holds it,
// whatever the set takes in after.
func (s *Set) Batch(from int) Batch {
	n := len(s.keys.IDs)
	b := Batch{IDs: s.keys.IDs[from:n:n], Tag: s.keys.Tag}
	if s.keys.Tags != nil {
		b.Tags = s.keys.Tags[from:n:n]
	}
	return b
}

// Has reports whether k is in the set. A set of one tag holds no key of
// another.
func (s *Set) Has(k Key) bool {
	if s.keys.Tags == nil && k.Tag() != s.keys.Tag {
		return false
	}
	_, ok := s.find(k)
	return ok
}

// Add inserts k and reports whether it was absent, in one probe.
func (s *Set) Add(k Key) bool {
	if s.keys.retag(k.Tag()) && s.pos != nil { // a second tag: the table hashes the whole key
		s.rehash(len(s.pos))
	}
	i, ok := s.find(k)
	if ok {
		return false
	}
	switch {
	case s.pos == nil && len(s.keys.IDs) < smallKeys:
		if s.keys.IDs == nil {
			s.keys.IDs = make([]model.VertexID, 0, smallKeys)
		}
	case len(s.keys.IDs) >= len(s.pos)/4*3:
		s.rehash(max(2*smallKeys, 2*len(s.pos)))
		i, _ = s.find(k)
	}
	s.keys.push(k)
	if s.pos != nil {
		s.pos[i] = uint32(len(s.keys.IDs))
	}
	return true
}

// Reserve makes room for n more keys at once, so that adding them grows
// nothing: Add's doubling reallocates columns and table over and over. (Up to
// smallKeys keys there is nothing to do: the first Add makes room for them.)
func (s *Set) Reserve(n int) {
	if size := slotsFor(len(s.keys.IDs) + n); len(s.keys.IDs)+n > smallKeys && size > len(s.pos) {
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
		for p, v := range s.keys.IDs {
			if v == k.Vertex && (s.keys.Tags == nil || s.keys.Tags[p] == k.Tag()) {
				return 0, true
			}
		}
		return 0, false
	}
	mask := len(s.pos) - 1
	for slot = int(s.hash(k)) & mask; s.pos[slot] != 0; slot = (slot + 1) & mask {
		if p := s.pos[slot] - 1; s.keys.IDs[p] == k.Vertex && (s.keys.Tags == nil || s.keys.Tags[p] == k.Tag()) {
			return slot, true
		}
	}
	return slot, false
}

// hash is k's hash in the table: the vertex's while the set has one tag, and
// the vertex's folded with the tag's once tags are mixed.
func (s *Set) hash(k Key) uint64 {
	v := uint64(k.Vertex)
	if s.keys.Tags != nil {
		v ^= mix(uint64(k.Anc)^0xbf58476d1ce4e5b9, uint64(uint32(k.AncStep))<<32|uint64(uint32(k.Dest))^0x94d049bb133111eb)
	}
	return hashVertex(model.VertexID(v))
}

// rehash builds a table of size slots over the keys held, in the old one when
// it has that size (a second tag rehashes every key), and makes room in the
// columns for the ¾ of them that may fill: they grow together, each into a new
// array of exactly that room (append's own growth would overshoot it), so a
// Batch taken before keeps the old one.
func (s *Set) rehash(size int) {
	room := size / 4 * 3
	if cap(s.keys.IDs) < room {
		s.keys.IDs = append(make([]model.VertexID, 0, room), s.keys.IDs...)
	}
	if s.keys.Tags != nil && cap(s.keys.Tags) < room {
		s.keys.Tags = append(make([]Tag, 0, room), s.keys.Tags...)
	}
	if len(s.pos) == size {
		clear(s.pos)
	} else {
		s.pos = make([]uint32, size)
	}
	for p := range s.keys.IDs {
		i := int(s.hash(s.keys.At(p))) & (size - 1)
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
