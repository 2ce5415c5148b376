// Package cache implements the traversal-affiliate cache of §V-A: a
// per-server, preallocated buffer remembering which {travel-id, step,
// vertex-id} requests have already been served, so the asynchronous engine
// can drop the redundant re-visits that different paths arriving at
// different times would otherwise turn into duplicate disk I/O.
//
// Three deliberate refinements over the paper's triple:
//
//   - the key also carries the rtn()-ancestor tag, because two requests for
//     the same vertex at the same step with different ancestors are NOT
//     redundant — dropping one would lose that ancestor's end-of-chain
//     signal. For plans without rtn() the tag is constant and the key
//     degenerates to the paper's exact triple: a step's bucket, a
//     frontier.Set, then holds the tag once and 8 bytes a key;
//   - eviction follows the paper's time-based policy: within a traversal,
//     entries with the smallest step id are evicted first, because a larger
//     observed step implies the oldest steps have effectively drained;
//   - a traversal admits each execution id once (Admit), so a duplicated
//     dispatch cannot end its twin early by finding all its keys taken.
package cache

import (
	"slices"
	"sync"
	"sync/atomic"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

// Key identifies one served traversal request.
type Key struct {
	Travel  uint64
	Step    int32
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
}

// Cache is a bounded set of served request keys. The zero value is not
// usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	size    int
	evicted atomic.Int64 // keys dropped to make room, over the cache's life
	travels map[uint64]*travelSet
}

// travelSet holds one traversal's served keys bucketed by step, the rest of
// the key in the step's frontier.Set, so smallest-step eviction drops a set,
// and the ids of the executions admitted for it, which are never evicted.
type travelSet struct {
	steps   map[int32]*frontier.Set
	minStep int32
	maxStep int32
	size    int
	execs   []uint64 // sorted
	execs0  [4]uint64
}

// New creates a cache bounded to capacity entries. Capacity below one
// disables bounding (unlimited), which the synchronous engine uses for its
// per-step visited sets.
func New(capacity int) *Cache {
	return &Cache{cap: capacity, travels: make(map[uint64]*travelSet)}
}

// CheckAndInsert reports whether the key was already served; if it was not,
// the key is inserted (and, if the cache is full, entries from the smallest
// step of the same traversal are evicted to make room). It is Admit's
// one-key case.
func (c *Cache) CheckAndInsert(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	fk := frontier.Key{Vertex: k.Vertex, Anc: k.Anc, AncStep: k.AncStep}
	return c.insertLocked(c.travelLocked(k.Travel, k.Step), k.Step, fk, 1)
}

// Admit checks and inserts, in one lock hold, the keys of one execution's
// batch, all at step, as CheckAndInsert would one by one (a key's Dest is
// not part of it). It sets redundant[i] for each i'th key already there and
// returns how many it set. keys is only read. A traversal admits an
// execution once: for an exec id admitted before, Admit changes nothing and
// reports fresh false.
func (c *Cache) Admit(travel, exec uint64, step int32, keys frontier.Batch, redundant []bool) (n int, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.travelLocked(travel, step)
	at, seen := slices.BinarySearch(ts.execs, exec)
	if seen {
		return 0, false
	}
	switch {
	case ts.execs == nil:
		ts.execs = ts.execs0[:0]
	case len(ts.execs) == cap(ts.execs):
		// A point query admits a few executions, a fanout tens a server:
		// the first overflow grows ×16, so a fanout's rarely grows twice.
		ts.execs = slices.Grow(ts.execs, 15*len(ts.execs))
	}
	ts.execs = slices.Insert(ts.execs, at, exec)
	if b := ts.steps[step]; b != nil {
		b.Reserve(keys.Len())
	}
	for i := range keys.IDs {
		k := keys.At(i)
		k.Dest = 0
		if c.insertLocked(ts, step, k, keys.Len()-i) {
			redundant[i] = true
			n++
		}
	}
	return n, true
}

// travelLocked returns the traversal's record, made on first use at step.
func (c *Cache) travelLocked(travel uint64, step int32) *travelSet {
	ts, ok := c.travels[travel]
	if !ok {
		ts = &travelSet{steps: make(map[int32]*frontier.Set), minStep: step, maxStep: step}
		c.travels[travel] = ts
	}
	return ts
}

// insertLocked reports whether fk was already served at step of ts, and
// inserts it if not. A bucket it makes has room for room keys: the step's
// set is sized for a batch once, up front, not by doubling.
func (c *Cache) insertLocked(ts *travelSet, step int32, fk frontier.Key, room int) bool {
	bucket := ts.steps[step]
	if c.cap > 0 && c.size >= c.cap {
		// Full: a miss evicts (perhaps this bucket) before it inserts, so
		// the check cannot be the insert's probe.
		if bucket != nil && bucket.Has(fk) {
			return true
		}
		c.evictLocked(ts, step)
		bucket = ts.steps[step]
	}
	if bucket == nil {
		bucket = new(frontier.Set)
		bucket.Reserve(room)
		ts.steps[step] = bucket
	}
	if !bucket.Add(fk) {
		return true
	}
	ts.size++
	c.size++
	if step < ts.minStep {
		ts.minStep = step
	}
	if step > ts.maxStep {
		ts.maxStep = step
	}
	return false
}

// evictLocked frees room for an insert at step `incoming` by dropping the
// smallest-step bucket of the same traversal. If the traversal has only the
// incoming step's bucket (nothing older to drop), it falls back to evicting
// the smallest-step bucket of the largest other traversal.
func (c *Cache) evictLocked(ts *travelSet, incoming int32) {
	for c.size >= c.cap {
		victim := ts
		if victim.size == 0 || (victim.minStep >= incoming && len(victim.steps) <= 1) {
			// Nothing older within this traversal: evict from the largest
			// other one instead (of equals the smallest id, not map order).
			victim = nil
			var victimID uint64
			for id, other := range c.travels {
				if other.size == 0 {
					continue
				}
				if victim == nil || other.size > victim.size || (other.size == victim.size && id < victimID) {
					victim, victimID = other, id
				}
			}
			if victim == nil {
				return // cache empty; insert proceeds
			}
		}
		// Drop the whole smallest-step bucket.
		step := victim.minStep
		for {
			if b := victim.steps[step]; b != nil && b.Len() > 0 {
				victim.size -= b.Len()
				c.size -= b.Len()
				c.evicted.Add(int64(b.Len()))
				delete(victim.steps, step)
				break
			}
			if step >= victim.maxStep {
				return
			}
			step++
		}
		// Recompute minStep lazily.
		victim.minStep = victim.maxStep
		for s, b := range victim.steps {
			if b.Len() > 0 && s < victim.minStep {
				victim.minStep = s
			}
		}
	}
}

// Evictions reports how many keys the cache has evicted to make room.
func (c *Cache) Evictions() int64 { return c.evicted.Load() }

// DropTravel releases every entry of a finished traversal.
func (c *Cache) DropTravel(travel uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.travels[travel]; ok {
		c.size -= ts.size
		delete(c.travels, travel)
	}
}
