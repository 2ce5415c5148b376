// Package sched implements the per-server request scheduler of §V-B,
// generalized to a server-wide, two-level queue that multiplexes every
// concurrent traversal over one bounded worker pool. Incoming traversal
// requests are buffered locally (the server acknowledges its ancestor
// before processing, so ancestors finish asynchronously); the server's
// worker pool drains the queue under three cooperating policies:
//
//   - traversal scheduling (level 1, across traversals): workers pick the
//     traversal that has been served the fewest requests so far — a
//     fair-share policy — breaking ties toward the oldest traversal so
//     stragglers drain instead of starving behind a stream of newcomers;
//   - execution scheduling (level 2, within a traversal): workers take the
//     request with the smallest step id, so slow steps catch up and the
//     spread between the fastest and slowest in-flight step stays bounded
//     (which also bounds traversal-affiliate cache pressure);
//   - execution merging (level 2): requests for the same vertex — across
//     different steps of the same traversal — are coalesced into one group
//     served by a single disk access.
//
// The level-2 policies are independently switchable per traversal so the
// benchmarks can ablate them, and a per-traversal step gate turns a
// traversal's sub-queue into the synchronous engine's barrier buffer.
// Admission control bounds the total buffered items across all traversals
// (Push fails with ErrBackpressure), and dropping a traversal evicts its
// pending groups without processing them.
package sched

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"graphtrek/internal/model"
)

// ErrBackpressure is returned by Push when admitting a batch would exceed
// the queue's depth limit. The engine surfaces it as a traversal-level
// error the client can retry once load subsides.
var ErrBackpressure = errors.New("sched: server queue depth limit exceeded (backpressure)")

var base = time.Now()

// Now reads the executor's one clock: the monotonic offset from base, a
// single clock read where time.Now also pays for the wall clock. Enqueue and
// pop stamps and the engine's phase boundaries are all readings of it.
func Now() time.Duration { return time.Since(base) }

// Accumulator tracks the unprocessed items of one traversal execution. The
// scheduler never inspects it beyond carrying it with each item; the engine
// implements it with per-mode completion behaviour.
type Accumulator interface {
	// ItemDone marks one of the accumulator's items processed and reports
	// whether it was the last one.
	ItemDone() bool
}

// Item is one buffered traversal request: visit Vertex on behalf of Step,
// carrying the rtn() provenance tag (Anc, AncStep, Dest) and the
// accumulator of the execution that owns it.
type Item struct {
	Travel  uint64
	Step    int32
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
	Dest    int32
	Exec    Accumulator
	// Enqueued is stamped by Push on admission (a reading of Now). It
	// attributes queue wait to the individual request: merging can fold late
	// arrivals into a group whose head enqueued much earlier, so the
	// group-level timestamp alone would overstate their wait.
	Enqueued time.Duration
}

// Group is the unit a worker processes: one vertex of one traversal, with
// every request currently merged onto it. Without merging a group holds
// exactly one item.
type Group struct {
	Travel uint64
	Vertex model.VertexID
	Items  []Item
	// Enqueued is when the group's first item arrived; the executor derives
	// its enqueue→pop wait metric from it.
	Enqueued time.Duration
	// Popped is when a worker took the group — stamped by Pop, so wait and
	// per-phase span attribution downstream share one clock read instead of
	// each call site sampling its own.
	Popped time.Duration
}

// Options selects a traversal's level-2 policies.
type Options struct {
	// Priority pops smallest-step groups first (execution scheduling).
	Priority bool
	// Merge coalesces same-vertex requests into one group.
	Merge bool
	// Gated holds back items whose step exceeds the released gate — the
	// synchronous engine's barrier. Ungated traversals admit every step.
	Gated bool
}

type group struct {
	Group
	minStep int32
	seq     uint64
	taken   bool
}

// stepBucket holds the groups whose smallest step is step, in arrival
// order. A merge that lowers a group's step appends it to the lower bucket
// and leaves a stale slot here (minStep != step, and taken once it is popped
// from there), which peek trims lazily. items counts the buffered items of
// the groups that currently sit here, stale slots excluded, so eligibility
// is a sum over buckets rather than a walk over groups.
type stepBucket struct {
	step   int32
	groups []*group
	items  int
}

// travelQueue is one traversal's sub-queue. All fields are guarded by the
// owning Multi's mutex.
type travelQueue struct {
	travel  uint64
	opts    Options
	gate    int32
	arrival uint64 // registration order — the fair-share tie-break
	served  int    // items handed to workers so far — the fair-share key
	seq     uint64
	byKey   map[model.VertexID]*group // only when merging
	buckets []stepBucket              // sorted by step; a plan has few steps
	size    int                       // buffered items
}

// Multi is the server-wide two-level queue. All methods are safe for
// concurrent use.
type Multi struct {
	mu        sync.Mutex
	cond      *sync.Cond
	maxDepth  int // admission bound on buffered items; 0 = unbounded
	travels   map[uint64]*travelQueue
	order     []*travelQueue // the values of travels, for Pop to walk
	arrival   uint64
	size      int // buffered items across all traversals
	highWater int
	closed    bool
}

// NewMulti creates the server's queue. maxDepth bounds the total buffered
// items across all traversals (admission control); zero or negative means
// unbounded.
func NewMulti(maxDepth int) *Multi {
	if maxDepth < 0 {
		maxDepth = 0
	}
	m := &Multi{maxDepth: maxDepth, travels: make(map[uint64]*travelQueue)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Register creates the traversal's sub-queue with the given policies. A
// gated traversal starts with gate 0 (only step-0 items eligible).
// Re-registering an existing traversal is a no-op.
func (m *Multi) Register(travel uint64, opts Options) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.travels[travel] != nil {
		return
	}
	t := &travelQueue{
		travel:  travel,
		opts:    opts,
		arrival: m.arrival,
		byKey:   make(map[model.VertexID]*group),
	}
	m.arrival++
	if !opts.Gated {
		t.gate = math.MaxInt32
	}
	m.travels[travel] = t
	m.order = append(m.order, t)
}

// Drop evicts a traversal: its pending groups are discarded unprocessed —
// a dead traversal's queued work must not occupy workers — and subsequent
// pushes for it are dropped. Returns the number of evicted items.
func (m *Multi) Drop(travel uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok {
		return 0
	}
	delete(m.travels, travel)
	i, last := slices.Index(m.order, t), len(m.order)-1
	m.order[i], m.order[last] = m.order[last], nil
	m.order = m.order[:last]
	m.size -= t.size
	return t.size
}

// Push buffers items for their traversal, enforcing the depth limit as
// all-or-nothing admission per batch. It returns the resulting total queue
// depth. Pushing to a closed queue or an unregistered (dropped) traversal
// silently discards the items, mirroring message delivery to a finished
// traversal.
func (m *Multi) Push(items []Item) (int, error) {
	if len(items) == 0 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.size, nil
	}
	now := Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.size, nil
	}
	t, ok := m.travels[items[0].Travel]
	if !ok {
		return m.size, nil
	}
	if m.maxDepth > 0 && m.size+len(items) > m.maxDepth {
		return m.size, ErrBackpressure
	}
	// The batch's groups and their first items come out of two slabs, not two
	// heap objects per group, sized to the groups the batch creates: every
	// item without merging, else those that find no buffered group to join (a
	// vertex repeated within the batch counts twice and leaves a slot spare).
	fresh := len(items)
	if t.opts.Merge {
		fresh = 0
		for i := range items {
			if g, ok := t.byKey[items[i].Vertex]; !ok || g.taken {
				fresh++
			}
		}
	}
	groups, slots := make([]group, fresh), make([]Item, fresh)
	next := 0
	for i := range items {
		it := items[i]
		it.Enqueued = now
		if t.opts.Merge {
			if g, ok := t.byKey[it.Vertex]; ok && !g.taken {
				t.merge(g, it)
				continue
			}
		}
		// The Items capacity stops at the group's own slot, so a later merge
		// append reallocates instead of writing into the next group's item.
		g := &groups[next]
		slots[next] = it
		*g = group{
			Group:   Group{Travel: it.Travel, Vertex: it.Vertex, Items: slots[next : next+1 : next+1], Enqueued: now},
			minStep: it.Step,
			seq:     t.seq,
		}
		next++
		t.seq++
		if t.opts.Merge {
			t.byKey[it.Vertex] = g
		}
		b := t.bucketFor(it.Step)
		b.groups = append(b.groups, g)
		b.items++
	}
	m.size += len(items)
	t.size += len(items)
	if m.size > m.highWater {
		m.highWater = m.size
	}
	m.cond.Broadcast()
	return m.size, nil
}

// merge appends it to a buffered group, moving the group (and its item
// count) down to the item's step's bucket when that is lower; the stale slot
// in the old bucket is skipped lazily.
func (t *travelQueue) merge(g *group, it Item) {
	b := t.bucketFor(g.minStep)
	if it.Step < g.minStep {
		b.items -= len(g.Items)
		g.minStep = it.Step
		b = t.bucketFor(it.Step)
		b.groups = append(b.groups, g)
		b.items += len(g.Items)
	}
	g.Items = append(g.Items, it)
	b.items++
}

// bucketFor returns step's bucket, inserting it in step order if absent.
// The pointer is valid until the next insertion.
func (t *travelQueue) bucketFor(step int32) *stepBucket {
	i := 0
	for i < len(t.buckets) && t.buckets[i].step < step {
		i++
	}
	if i == len(t.buckets) || t.buckets[i].step != step {
		t.buckets = append(t.buckets, stepBucket{})
		copy(t.buckets[i+1:], t.buckets[i:])
		t.buckets[i] = stepBucket{step: step}
	}
	return &t.buckets[i]
}

// Pop blocks until some traversal has an eligible group (its smallest step
// is within that traversal's gate) and returns it under the two-level
// policy. The second result is false once the queue is closed and drained
// of eligible work.
func (m *Multi) Pop() (Group, bool) {
	m.mu.Lock()
	g := m.popLocked()
	for g == nil && !m.closed {
		m.cond.Wait()
		g = m.popLocked()
	}
	m.mu.Unlock()
	if g == nil {
		return Group{}, false
	}
	// A taken group is the popper's alone, so the stamp needs no lock.
	g.Popped = Now()
	return g.Group, true
}

// popLocked runs the two-level selection: level 1 picks the least-served
// traversal with eligible work (ties to the oldest), level 2 picks that
// traversal's group under its own policy.
func (m *Multi) popLocked() *group {
	var best *travelQueue
	var bestG *group
	for _, t := range m.order {
		g := t.peek()
		if g == nil {
			continue
		}
		if best == nil || t.served < best.served ||
			(t.served == best.served && t.arrival < best.arrival) {
			best, bestG = t, g
		}
	}
	if best == nil {
		return nil
	}
	best.take(bestG)
	best.served += len(bestG.Items)
	m.size -= len(bestG.Items)
	return bestG
}

// peek selects the traversal's next group under its policy without removing
// it, trimming stale bucket slots left by merges that moved a group. The
// returned group is the head of its minStep bucket.
func (t *travelQueue) peek() *group {
	var best *group
	for bi := range t.buckets {
		b := &t.buckets[bi]
		if b.step > t.gate {
			break
		}
		// Trim stale heads (taken, or relocated to another bucket).
		i := 0
		for i < len(b.groups) && (b.groups[i].taken || b.groups[i].minStep != b.step) {
			i++
		}
		b.groups = b.groups[i:]
		if len(b.groups) == 0 {
			continue
		}
		head := b.groups[0]
		if t.opts.Priority {
			return head // smallest eligible step wins
		}
		if best == nil || head.seq < best.seq {
			best = head
		}
	}
	return best
}

// take removes a group returned by peek from its bucket.
func (t *travelQueue) take(g *group) {
	b := t.bucketFor(g.minStep)
	b.groups = b.groups[1:]
	b.items -= len(g.Items)
	g.taken = true
	if t.opts.Merge {
		delete(t.byKey, g.Vertex)
	}
	t.size -= len(g.Items)
}

// Release raises a traversal's gate so items up to and including step
// become eligible. It is a no-op on ungated or unknown traversals and
// never lowers the gate.
func (m *Multi) Release(travel uint64, step int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok || !t.opts.Gated || step <= t.gate {
		return
	}
	t.gate = step
	m.cond.Broadcast()
}

// Gate returns a traversal's current gate (MaxInt32 when ungated or
// unknown).
func (m *Multi) Gate(travel uint64) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.travels[travel]; ok {
		return t.gate
	}
	return math.MaxInt32
}

// Len reports the number of buffered items across all traversals.
func (m *Multi) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// HighWater reports the maximum queue depth observed since creation.
func (m *Multi) HighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.highWater
}

// EligibleLen reports the number of a traversal's buffered items whose step
// is within its gate — the items a worker could pop right now. The engine
// flushes a traversal's outboxes when this reaches zero; counting gated
// items would deadlock the synchronous barrier (step-k executions would
// never report termination while step-k+1 items wait behind the gate).
func (m *Multi) EligibleLen(travel uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok {
		return 0
	}
	n := 0
	for i := range t.buckets {
		if t.buckets[i].step > t.gate {
			break
		}
		n += t.buckets[i].items
	}
	return n
}

// Close wakes all blocked Pops; they drain remaining eligible work and then
// return false.
func (m *Multi) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}
