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
// pending groups without processing them. Done tells the engine, in one
// read, that a traversal went locally quiescent.
package sched

import (
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"graphtrek/internal/frontier"
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
// scheduler never inspects it beyond carrying it with each item (and telling
// one from another: implementations must be comparable, as a pointer is);
// the engine implements it with per-mode completion behaviour.
type Accumulator interface {
	// ItemDone marks one of the accumulator's items processed and reports
	// whether it was the last one.
	ItemDone() bool
}

// Item is one traversal request: visit Vertex on behalf of Step, carrying
// the rtn() provenance tag (Anc, AncStep, Dest) and the accumulator of the
// execution that owns it. The queue stores none: a buffered request is its
// key in the pushed slice plus what its batch shares (Group.Items joins them).
type Item struct {
	Travel  uint64
	Step    int32
	Vertex  model.VertexID
	Anc     model.VertexID
	AncStep int32
	Dest    int32
	Exec    Accumulator
	// Enqueued is when the request's batch was admitted (a reading of Now). It
	// attributes queue wait to the individual request: merging can fold late
	// arrivals into a group whose head enqueued much earlier, so the
	// group-level timestamp alone would overstate their wait.
	Enqueued time.Duration
}

// Group is the unit a worker processes: one vertex of one traversal, with
// every request currently merged onto it. Without merging a group holds
// exactly one request.
type Group struct {
	Travel uint64
	Vertex model.VertexID
	// Enqueued is when the group's first item arrived; the executor derives
	// its enqueue→pop wait metric from it.
	Enqueued time.Duration
	// Popped is when a worker took the group — stamped by Pop, so wait and
	// per-phase span attribution downstream share one clock read instead of
	// each call site sampling its own.
	Popped time.Duration
	head   *node
	n      int
	t      *travelQueue
}

// Len reports the number of requests in the group.
func (g Group) Len() int { return g.n }

// Owner returns the Options.Owner its traversal was registered with.
func (g Group) Owner() any { return g.t.opts.Owner }

// Items appends the group's requests to buf in arrival order and returns it.
// The copies are the caller's; the pushed keys behind them stay untouched.
func (g Group) Items(buf []Item) []Item {
	first := len(buf)
	for nd := g.head; nd != nil; nd = nd.next {
		k := &nd.batch.keys[nd.idx]
		buf = append(buf, Item{
			Travel: g.Travel, Step: nd.step, Vertex: k.Vertex, Anc: k.Anc, AncStep: k.AncStep, Dest: k.Dest,
			Exec: nd.batch.exec, Enqueued: nd.batch.enqueued,
		})
	}
	slices.Reverse(buf[first+1:]) // merges are linked newest first
	return buf
}

// Options selects a traversal's level-2 policies and names its owner.
type Options struct {
	// Priority pops smallest-step groups first (execution scheduling).
	Priority bool
	// Merge coalesces same-vertex requests into one group.
	Merge bool
	// Gated holds back items whose step exceeds the released gate — the
	// synchronous engine's barrier. Ungated traversals admit every step.
	Gated bool
	// Owner is the engine's state for the traversal, handed back with each of
	// its popped groups (Group.Owner), so a worker looks nothing up.
	Owner any
}

// batch is what one execution's requests pushed together share. keys is the
// pushed slice itself, read-only here.
type batch struct {
	exec     Accumulator
	enqueued time.Duration
	keys     []frontier.Key
}

// node is one buffered request, keys[idx] of its batch at step; a batch's
// nodes are one slab. A request that found no group to join is its group's
// first node and carries the group's state; merged ones chain off it by next.
type node struct {
	batch   *batch
	next    *node
	idx     int32
	step    int32
	minStep int32
	n       int32 // requests in the group; 0 once a worker took it
	seq     uint64
}

func (g *node) vertex() model.VertexID { return g.batch.keys[g.idx].Vertex }

// stepBucket holds the groups whose smallest step is step, in arrival
// order. A merge that lowers a group's step appends it to the lower bucket
// and leaves a stale slot here (minStep != step, and taken once it is popped
// from there), which peek trims lazily. items counts the buffered items of
// the groups that currently sit here, stale slots excluded, so eligibility
// is a sum over buckets rather than a walk over groups.
type stepBucket struct {
	step   int32
	groups []*node
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
	running int    // items popped and not yet reported Done
	seq     uint64
	index   frontier.Index[node] // vertex → buffered group; only when merging
	buckets []stepBucket         // sorted by step; a plan has few steps
	size    int                  // buffered items
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
	t := &travelQueue{travel: travel, opts: opts, arrival: m.arrival}
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

// PushBatch buffers keys as requests of travel at step on behalf of exec,
// all but those whose skip is set (skip may be nil); live is how many that
// leaves. It enforces the depth limit as all-or-nothing admission per batch,
// and returns the resulting total queue depth. It takes ownership of keys:
// the slice is the queue's record of the requests until they are popped — no
// copy is made, and nothing writes to it, so it may be memory other readers
// share (a decoded frame). skip is only read during the call. Pushing to a closed queue or an
// unregistered (dropped) traversal silently discards the batch, mirroring
// message delivery to a finished traversal.
func (m *Multi) PushBatch(travel uint64, step int32, exec Accumulator, keys []frontier.Key, skip []bool, live int) (int, error) {
	return m.push(travel, step, exec, keys, skip, live, nil)
}

// Push is PushBatch for requests spelled out one by one, which may differ in
// step and execution (Travel is the first item's). The items are only read.
func (m *Multi) Push(items []Item) (int, error) {
	if len(items) == 0 {
		return m.Len(), nil
	}
	keys := make([]frontier.Key, len(items))
	for i := range items {
		keys[i] = frontier.Key{Vertex: items[i].Vertex, Anc: items[i].Anc, AncStep: items[i].AncStep, Dest: items[i].Dest}
	}
	return m.push(items[0].Travel, items[0].Step, items[0].Exec, keys, nil, len(keys), items)
}

// push is both: items, when given, name each key's own step and execution;
// n keys are not skipped.
func (m *Multi) push(travel uint64, step int32, exec Accumulator, keys []frontier.Key, skip []bool, n int, items []Item) (int, error) {
	// One slab holds the batch's nodes; one clock read stamps them all.
	b := &batch{exec: exec, enqueued: Now(), keys: keys}
	nodes := make([]node, n)
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if m.closed || !ok {
		return m.size, nil
	}
	if m.maxDepth > 0 && m.size+n > m.maxDepth {
		return m.size, ErrBackpressure
	}
	// Every table the batch can grow is sized for it once, up front.
	if t.opts.Merge {
		t.index.Reserve(n)
	}
	bk := t.bucketFor(step)
	bk.groups = slices.Grow(bk.groups, n)
	nd := nodes
	for i := range keys {
		if skip != nil && skip[i] {
			continue
		}
		if items != nil {
			if step = items[i].Step; items[i].Exec != b.exec {
				b = &batch{exec: items[i].Exec, enqueued: b.enqueued, keys: keys}
			}
		}
		t.add(&nd[0], b, int32(i), step)
		nd = nd[1:]
	}
	m.size += n
	t.size += n
	if m.size > m.highWater {
		m.highWater = m.size
	}
	m.cond.Broadcast()
	return m.size, nil
}

// add buffers keys[idx] of b at step as nd: merged onto the vertex's buffered
// group, or else as a group of its own. The index probe that looks for the
// group is the one that registers the new one.
func (t *travelQueue) add(nd *node, b *batch, idx, step int32) {
	*nd = node{batch: b, idx: idx, step: step}
	if t.opts.Merge {
		if g := t.index.Insert(nd.vertex(), nd); g != nil {
			t.merge(g, nd)
			return
		}
	}
	nd.minStep, nd.n, nd.seq = step, 1, t.seq
	t.seq++
	bk := t.bucketFor(step)
	bk.groups = append(bk.groups, nd)
	bk.items++
}

// merge links nd into a buffered group's chain, moving the group (and its
// item count) down to nd's step's bucket when that is lower; the stale slot
// in the old bucket is skipped lazily.
func (t *travelQueue) merge(g, nd *node) {
	b := t.bucketFor(g.minStep)
	if nd.step < g.minStep {
		b.items -= int(g.n)
		g.minStep = nd.step
		b = t.bucketFor(nd.step)
		b.groups = append(b.groups, g)
		b.items += int(g.n)
	}
	nd.next, g.next = g.next, nd
	g.n++
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
	g, ok := m.popLocked()
	for !ok && !m.closed {
		m.cond.Wait()
		g, ok = m.popLocked()
	}
	m.mu.Unlock()
	if ok {
		g.Popped = Now()
	}
	return g, ok
}

// popLocked runs the two-level selection: level 1 picks the least-served
// traversal with eligible work (ties to the oldest), level 2 picks that
// traversal's group under its own policy.
func (m *Multi) popLocked() (Group, bool) {
	var best *travelQueue
	var bestG *node
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
		return Group{}, false
	}
	n := int(bestG.n)
	best.take(bestG)
	best.served += n
	best.running += n
	m.size -= n
	return Group{Travel: best.travel, Vertex: bestG.vertex(), Enqueued: bestG.batch.enqueued, head: bestG, n: n, t: best}, true
}

// peek selects the traversal's next group under its policy without removing
// it, trimming stale bucket slots left by merges that moved a group. The
// returned group is the head of its minStep bucket.
func (t *travelQueue) peek() *node {
	var best *node
	for bi := range t.buckets {
		b := &t.buckets[bi]
		if b.step > t.gate {
			break
		}
		// Trim stale heads (taken, or relocated to another bucket).
		i := 0
		for i < len(b.groups) && (b.groups[i].n == 0 || b.groups[i].minStep != b.step) {
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

// take removes a group returned by peek from its bucket and the index.
func (t *travelQueue) take(g *node) {
	b := t.bucketFor(g.minStep)
	b.groups = b.groups[1:]
	b.items -= int(g.n)
	t.size -= int(g.n)
	g.n = 0
	if t.opts.Merge {
		t.index.Delete(g.vertex())
	}
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

// Done reports n items of a traversal's popped groups processed and whether
// that left it locally quiescent: nothing buffered within its gate and
// nothing popped but not done. Pop counts a group in process in the lock hold
// that takes it and Done reads both in the hold that lowers one, so no group
// is ever between the two. Done(travel, 0) only asks. Gated items do not
// count: the synchronous barrier would deadlock (step-k executions would never
// end while step-k+1 items wait behind the gate). A dropped traversal is never
// quiescent.
func (m *Multi) Done(travel uint64, n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok {
		return false
	}
	t.running -= n
	if t.running != 0 {
		return false
	}
	for _, b := range t.buckets {
		if b.step <= t.gate && b.items > 0 {
			return false
		}
	}
	return true
}

// Close wakes all blocked Pops; they drain remaining eligible work and then
// return false.
func (m *Multi) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}
