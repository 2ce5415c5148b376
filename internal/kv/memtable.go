package kv

import "bytes"

// maxHeight bounds the skiplist tower height; 2^12 expected entries per
// level-4 probability is far more than a memtable ever holds.
const maxHeight = 12

// skipNode is one tower in the skiplist. Nodes are never removed; deletion
// is represented by a tombstone entry so it can shadow older SSTables.
type skipNode struct {
	ent  entry
	next [maxHeight]*skipNode
}

// memtable is an in-memory ordered map from key to entry, implemented as a
// skiplist. It is not safe for concurrent use; the DB serializes access.
type memtable struct {
	head   *skipNode
	height int
	rng    uint64 // xorshift state for tower heights
	bytes  int    // approximate memory footprint
	count  int
}

func newMemtable() *memtable {
	return &memtable{head: &skipNode{}, height: 1, rng: 0x9e3779b97f4a7c15}
}

// randHeight draws a tower height with P(h >= k) = 4^-(k-1).
func (m *memtable) randHeight() int {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	h := 1
	for v := m.rng; h < maxHeight && v&3 == 0; v >>= 2 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, also filling
// prev with the rightmost node before that position on every level.
func (m *memtable) findGreaterOrEqual(key []byte, prev *[maxHeight]*skipNode) *skipNode {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareKeys(x.next[lvl].ent.key, key) < 0 {
			x = x.next[lvl]
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return x.next[0]
}

// set inserts or replaces the entry for e.key.
func (m *memtable) set(e entry) {
	var prev [maxHeight]*skipNode
	if n := m.findGreaterOrEqual(e.key, &prev); n != nil && bytes.Equal(n.ent.key, e.key) {
		m.bytes += len(e.value) - len(n.ent.value)
		n.ent = e
		return
	}
	h := m.randHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	n := &skipNode{ent: e}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.bytes += len(e.key) + len(e.value) + 48
	m.count++
}

// get returns the entry for key, if present (possibly a tombstone).
func (m *memtable) get(key []byte) (entry, bool) {
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.ent.key, key) {
		return n.ent, true
	}
	return entry{}, false
}

// memIterator walks the memtable in key order starting at a seek position.
type memIterator struct {
	n *skipNode
}

// iterate returns an iterator positioned at the first key >= start (or the
// first key overall when start is nil).
func (m *memtable) iterate(start []byte) memIterator {
	if start == nil {
		return memIterator{n: m.head.next[0]}
	}
	return memIterator{n: m.findGreaterOrEqual(start, nil)}
}

func (it *memIterator) valid() bool  { return it.n != nil }
func (it *memIterator) entry() entry { return it.n.ent }
func (it *memIterator) next()        { it.n = it.n.next[0] }
