package frontier

import "graphtrek/internal/model"

// Index maps vertices to values that come and go — the scheduler's merge
// index: the buffered group a vertex's next request joins. It is Set's table
// with a value beside the key (nil marks an empty slot) and a Delete that
// shifts the run behind the gap back over it, so no tombstones build up
// however long the traversal runs. The zero value is an empty index; it is
// not safe for concurrent use.
type Index[V any] struct {
	slots []indexSlot[V]
	n     int
}

type indexSlot[V any] struct {
	k model.VertexID
	v *V
}

func (x *Index[V]) home(k model.VertexID) int {
	return int(hashVertex(k)) & (len(x.slots) - 1)
}

// Reserve makes room for n more vertices at no more than ¾ load (a probe
// must end at an empty slot), in one rehash.
func (x *Index[V]) Reserve(n int) {
	size := slotsFor(x.n + n)
	if size <= len(x.slots) {
		return
	}
	old := x.slots
	x.slots, x.n = make([]indexSlot[V], size), 0
	for _, s := range old {
		if s.v != nil {
			x.Insert(s.k, s.v)
		}
	}
}

// Insert maps k to v unless k is held already, and returns the value k had:
// nil means v went in. One probe finds the answer and the slot.
func (x *Index[V]) Insert(k model.VertexID, v *V) *V {
	if x.n >= len(x.slots)/4*3 {
		x.Reserve(1)
	}
	i := x.home(k)
	for ; x.slots[i].v != nil; i = (i + 1) & (len(x.slots) - 1) {
		if x.slots[i].k == k {
			return x.slots[i].v
		}
	}
	x.slots[i] = indexSlot[V]{k, v}
	x.n++
	return nil
}

// Delete forgets k, if held.
func (x *Index[V]) Delete(k model.VertexID) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(k)
	for ; x.slots[i].v == nil || x.slots[i].k != k; i = (i + 1) & mask {
		if x.slots[i].v == nil {
			return
		}
	}
	// Close the gap: an entry further along the run moves back into it
	// unless that would put it before its home slot.
	for j := (i + 1) & mask; x.slots[j].v != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].k))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = indexSlot[V]{}
	x.n--
}
