// Package cache implements the traversal-affiliate cache of §V-A: a
// per-server, preallocated buffer remembering which {travel-id, step,
// vertex-id} requests have already been served, so the asynchronous engine
// can drop the redundant re-visits that different paths arriving at
// different times would otherwise turn into duplicate disk I/O.
//
// Two deliberate refinements over the paper's triple:
//
//   - the key also carries the rtn()-ancestor tag, because two requests for
//     the same vertex at the same step with different ancestors are NOT
//     redundant — dropping one would lose that ancestor's end-of-chain
//     signal. For plans without rtn() the tag is constant and the key
//     degenerates to the paper's exact triple;
//   - eviction follows the paper's time-based policy: within a traversal,
//     entries with the smallest step id are evicted first, because a larger
//     observed step implies the oldest steps have effectively drained.
package cache

import (
	"sync"

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
	travels map[uint64]*travelSet
}

// travelSet holds one traversal's served keys bucketed by step, the rest of
// the key in the step's frontier.Set, so smallest-step eviction drops a set.
type travelSet struct {
	steps   map[int32]*frontier.Set
	minStep int32
	maxStep int32
	size    int
}

// New creates a cache bounded to capacity entries. Capacity below one
// disables bounding (unlimited), which the synchronous engine uses for its
// per-step visited sets.
func New(capacity int) *Cache {
	return &Cache{cap: capacity, travels: make(map[uint64]*travelSet)}
}

// CheckAndInsert reports whether the key was already served; if it was not,
// the key is inserted (and, if the cache is full, entries from the smallest
// step of the same traversal are evicted to make room).
func (c *Cache) CheckAndInsert(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.travels[k.Travel]
	if !ok {
		ts = &travelSet{steps: make(map[int32]*frontier.Set), minStep: k.Step, maxStep: k.Step}
		c.travels[k.Travel] = ts
	}
	fk := frontier.Key{Vertex: k.Vertex, Anc: k.Anc, AncStep: k.AncStep}
	bucket := ts.steps[k.Step]
	if c.cap > 0 && c.size >= c.cap {
		// Full: a miss evicts (perhaps this bucket) before it inserts, so
		// the check cannot be the insert's probe.
		if bucket != nil && bucket.Has(fk) {
			return true
		}
		c.evictLocked(ts, k.Step)
		bucket = ts.steps[k.Step]
	}
	if bucket == nil {
		bucket = new(frontier.Set)
		ts.steps[k.Step] = bucket
	}
	if !bucket.Add(fk) {
		return true
	}
	ts.size++
	c.size++
	if k.Step < ts.minStep {
		ts.minStep = k.Step
	}
	if k.Step > ts.maxStep {
		ts.maxStep = k.Step
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

// DropTravel releases every entry of a finished traversal.
func (c *Cache) DropTravel(travel uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.travels[travel]; ok {
		c.size -= ts.size
		delete(c.travels, travel)
	}
}
