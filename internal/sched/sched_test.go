package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

func item(travel uint64, step int32, vertex int) Item {
	return Item{Travel: travel, Step: step, Vertex: model.VertexID(vertex)}
}

// newQueue builds a Multi with one registered traversal — the level-2
// policy tests all run against a single sub-queue.
func newQueue(travel uint64, opts Options) *Multi {
	m := NewMulti(0)
	m.Register(travel, opts)
	return m
}

func push(t testing.TB, m *Multi, items ...Item) {
	t.Helper()
	if _, err := m.Push(items); err != nil {
		t.Fatalf("push: %v", err)
	}
}

func popAll(q *Multi) []Group {
	q.Close()
	return popAllOpen(q)
}

func popAllOpen(q *Multi) []Group {
	var out []Group
	for {
		g, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, g)
	}
}

func TestFIFOOrder(t *testing.T) {
	q := newQueue(1, Options{})
	push(t, q, item(1, 2, 10), item(1, 0, 11), item(1, 1, 12))
	got := popAll(q)
	want := []model.VertexID{10, 11, 12}
	for i, g := range got {
		if g.Vertex != want[i] || g.Len() != 1 {
			t.Errorf("pop %d = %+v, want vertex %d", i, g, want[i])
		}
	}
}

func TestPriorityOrdersBySmallestStep(t *testing.T) {
	q := newQueue(1, Options{Priority: true})
	push(t, q, item(1, 5, 10), item(1, 1, 11), item(1, 3, 12), item(1, 1, 13))
	got := popAll(q)
	wantSteps := []int32{1, 1, 3, 5}
	wantVerts := []model.VertexID{11, 13, 12, 10} // FIFO within a step
	for i, g := range got {
		if g.Items(nil)[0].Step != wantSteps[i] || g.Vertex != wantVerts[i] {
			t.Errorf("pop %d = step %d vertex %d, want step %d vertex %d",
				i, g.Items(nil)[0].Step, g.Vertex, wantSteps[i], wantVerts[i])
		}
	}
}

func TestMergeCoalescesSameVertex(t *testing.T) {
	q := newQueue(1, Options{Priority: true, Merge: true})
	push(t, q, item(1, 1, 10), item(1, 2, 10), item(1, 1, 11))
	got := popAll(q)
	if len(got) != 2 {
		t.Fatalf("groups = %d, want 2", len(got))
	}
	if got[0].Vertex != 10 || got[0].Len() != 2 {
		t.Errorf("group 0 = %+v, want merged vertex 10 with 2 items", got[0])
	}
	if got[1].Vertex != 11 || got[1].Len() != 1 {
		t.Errorf("group 1 = %+v", got[1])
	}
}

func TestMergeDoesNotCrossTravels(t *testing.T) {
	q := NewMulti(0)
	q.Register(1, Options{Merge: true})
	q.Register(2, Options{Merge: true})
	push(t, q, item(1, 1, 10))
	push(t, q, item(2, 1, 10))
	got := popAll(q)
	if len(got) != 2 {
		t.Fatalf("groups = %d, want 2 (no cross-travel merge)", len(got))
	}
}

func TestMergeMovesGroupToLowerStep(t *testing.T) {
	q := newQueue(1, Options{Priority: true, Merge: true})
	push(t, q, item(1, 4, 10))
	push(t, q, item(1, 2, 11))
	push(t, q, item(1, 1, 10)) // merges; group 10 now has min step 1
	got := popAll(q)
	if got[0].Vertex != 10 || got[0].Len() != 2 {
		t.Fatalf("pop 0 = %+v, want vertex 10 popped first after move-down", got[0])
	}
	if got[1].Vertex != 11 {
		t.Errorf("pop 1 = %+v", got[1])
	}
}

func TestNoMergeAfterPop(t *testing.T) {
	q := newQueue(1, Options{Merge: true})
	push(t, q, item(1, 1, 10))
	g, ok := q.Pop()
	if !ok || g.Len() != 1 {
		t.Fatal("first pop failed")
	}
	// The group was taken; a new arrival must form a fresh group.
	push(t, q, item(1, 2, 10))
	got := popAll(q)
	if len(got) != 1 || got[0].Len() != 1 || got[0].Items(nil)[0].Step != 2 {
		t.Errorf("post-pop arrival = %+v", got)
	}
}

func TestGatedQueueHoldsFutureSteps(t *testing.T) {
	q := newQueue(1, Options{Gated: true})
	push(t, q, item(1, 1, 10), item(1, 0, 11))
	g, ok := q.Pop()
	if !ok || g.Vertex != 11 {
		t.Fatalf("pop = %+v, want the step-0 item", g)
	}
	// Step-1 item must be held until release.
	done := make(chan Group, 1)
	go func() {
		g, _ := q.Pop()
		done <- g
	}()
	select {
	case g := <-done:
		t.Fatalf("gated item popped early: %+v", g)
	case <-time.After(20 * time.Millisecond):
	}
	q.Release(1, 1)
	select {
	case g := <-done:
		if g.Vertex != 10 {
			t.Errorf("released pop = %+v", g)
		}
	case <-time.After(time.Second):
		t.Fatal("release did not wake the popper")
	}
	q.Close()
}

func TestReleaseNeverLowersGate(t *testing.T) {
	q := newQueue(1, Options{Gated: true})
	q.Release(1, 5)
	q.Release(1, 3)
	if g := gate(q, 1); g != 5 {
		t.Errorf("gate = %d, want 5", g)
	}
	// Ungated traversals ignore Release.
	u := newQueue(1, Options{})
	u.Release(1, 1)
	if g := gate(u, 1); g <= 1<<30 {
		t.Errorf("ungated gate = %d", g)
	}
}

func TestGateIsPerTravel(t *testing.T) {
	q := NewMulti(0)
	q.Register(1, Options{Gated: true})
	q.Register(2, Options{Gated: true})
	push(t, q, item(1, 1, 10))
	push(t, q, item(2, 1, 20))
	q.Release(1, 1)
	g, ok := q.Pop()
	if !ok || g.Travel != 1 {
		t.Fatalf("pop = %+v, want travel 1 (travel 2 still gated)", g)
	}
	if n := eligibleLen(q, 2); n != 0 {
		t.Errorf("travel 2 eligible = %d, want 0", n)
	}
	if !q.Done(2, 0) {
		t.Error("travel 2 holds only gated work, yet is not quiescent")
	}
	if q.Done(1, 0) || !q.Done(1, g.Len()) {
		t.Error("travel 1 must be quiescent exactly when its popped group is done")
	}
	q.Close()
}

func TestLenTracksItems(t *testing.T) {
	q := newQueue(1, Options{Merge: true})
	push(t, q, item(1, 1, 10), item(1, 2, 10), item(1, 1, 11))
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Errorf("Len after merged pop = %d, want 1", q.Len())
	}
}

func TestPushAfterCloseDropped(t *testing.T) {
	q := newQueue(1, Options{})
	q.Close()
	if _, err := q.Push([]Item{item(1, 0, 1)}); err != nil {
		t.Fatalf("push after close: %v", err)
	}
	if _, ok := q.Pop(); ok {
		t.Error("closed queue should not yield items pushed after close")
	}
}

func TestPushToUnknownTravelDropped(t *testing.T) {
	q := NewMulti(0)
	if _, err := q.Push([]Item{item(7, 0, 1)}); err != nil {
		t.Fatalf("push to unknown travel: %v", err)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
}

func TestCloseDrainsEligibleWork(t *testing.T) {
	q := newQueue(1, Options{})
	push(t, q, item(1, 0, 1), item(1, 0, 2))
	q.Close()
	if got := len(popAllOpen(q)); got != 2 {
		t.Errorf("drained %d items, want 2", got)
	}
}

func TestDropEvictsPendingGroups(t *testing.T) {
	q := NewMulti(0)
	q.Register(1, Options{Merge: true})
	q.Register(2, Options{})
	push(t, q, item(1, 0, 10), item(1, 1, 10), item(1, 0, 11))
	push(t, q, item(2, 0, 20))
	if n := q.Drop(1); n != 3 {
		t.Errorf("Drop evicted %d items, want 3", n)
	}
	if q.Len() != 1 {
		t.Errorf("Len after drop = %d, want 1", q.Len())
	}
	// A push for the dropped traversal is discarded, not resurrected.
	push(t, q, item(1, 0, 12))
	got := popAll(q)
	if len(got) != 1 || got[0].Travel != 2 {
		t.Errorf("post-drop pops = %+v, want only travel 2", got)
	}
}

func TestBackpressureRejectsWholeBatch(t *testing.T) {
	q := NewMulti(3)
	q.Register(1, Options{})
	push(t, q, item(1, 0, 1), item(1, 0, 2))
	// Admitting two more would exceed the bound: all-or-nothing rejection.
	if _, err := q.Push([]Item{item(1, 0, 3), item(1, 0, 4)}); err != ErrBackpressure {
		t.Fatalf("push over limit = %v, want ErrBackpressure", err)
	}
	if q.Len() != 2 {
		t.Errorf("Len after rejection = %d, want 2 (batch not partially admitted)", q.Len())
	}
	// A batch that fits is still admitted.
	push(t, q, item(1, 0, 5))
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	// Draining frees capacity again.
	q.Pop()
	push(t, q, item(1, 0, 6))
	q.Close()
}

func TestHighWaterTracksPeakDepth(t *testing.T) {
	q := newQueue(1, Options{})
	push(t, q, item(1, 0, 1), item(1, 0, 2), item(1, 0, 3))
	q.Pop()
	q.Pop()
	push(t, q, item(1, 0, 4))
	if hw := q.HighWater(); hw != 3 {
		t.Errorf("HighWater = %d, want 3", hw)
	}
	if d, _ := q.Push([]Item{item(1, 0, 5)}); d != 3 {
		t.Errorf("Push depth = %d, want 3", d)
	}
	q.Close()
}

// TestFairShareAcrossTravels: with two traversals queued, workers alternate
// between them instead of draining the first before touching the second.
func TestFairShareAcrossTravels(t *testing.T) {
	q := NewMulti(0)
	q.Register(1, Options{})
	q.Register(2, Options{})
	for i := 0; i < 4; i++ {
		push(t, q, item(1, 0, 10+i))
	}
	for i := 0; i < 4; i++ {
		push(t, q, item(2, 0, 20+i))
	}
	got := popAll(q)
	if len(got) != 8 {
		t.Fatalf("pops = %d, want 8", len(got))
	}
	for i := 0; i < 8; i += 2 {
		// Served counts tie at each even pop; the older traversal (1) wins
		// the tie, then traversal 2 is strictly less served.
		if got[i].Travel != 1 || got[i+1].Travel != 2 {
			t.Fatalf("pops %d,%d = travels %d,%d, want alternation 1,2",
				i, i+1, got[i].Travel, got[i+1].Travel)
		}
	}
}

// TestOldestTravelDrainsFirst: on a served-count tie, the scheduler prefers
// the oldest traversal, so a straggler is not starved by newcomers.
func TestOldestTravelDrainsFirst(t *testing.T) {
	q := NewMulti(0)
	q.Register(5, Options{}) // oldest
	q.Register(6, Options{})
	q.Register(7, Options{})
	push(t, q, item(7, 0, 70))
	push(t, q, item(6, 0, 60))
	push(t, q, item(5, 0, 50))
	g, ok := q.Pop()
	if !ok || g.Travel != 5 {
		t.Fatalf("first pop = travel %d, want the oldest (5)", g.Travel)
	}
	q.Close()
}

// TestFairShareWeighsMergedItems: fair share counts items served, so a
// traversal whose groups merge many requests yields the pool sooner.
func TestFairShareWeighsMergedItems(t *testing.T) {
	q := NewMulti(0)
	q.Register(1, Options{Merge: true})
	q.Register(2, Options{})
	// Travel 1: one group of 3 merged items, then another group.
	push(t, q, item(1, 0, 10), item(1, 1, 10), item(1, 2, 10), item(1, 0, 11))
	push(t, q, item(2, 0, 20), item(2, 0, 21), item(2, 0, 22))
	first, _ := q.Pop() // tie at 0 served: oldest (1) wins, serves 3 items
	if first.Travel != 1 || first.Len() != 3 {
		t.Fatalf("first pop = %+v, want travel 1's merged group", first)
	}
	// Travel 1 now has 3 served vs travel 2's 0: the next three pops must
	// all come from travel 2.
	for i := 0; i < 3; i++ {
		g, _ := q.Pop()
		if g.Travel != 2 {
			t.Fatalf("pop %d = travel %d, want 2 (fair share by items)", i+1, g.Travel)
		}
	}
	q.Close()
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := NewMulti(0)
	q.Register(0, Options{Priority: true, Merge: true})
	q.Register(1, Options{Priority: true, Merge: true})
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perProducer; i++ {
				q.Push([]Item{item(uint64(r.Intn(2)), int32(r.Intn(8)), r.Intn(100))})
			}
		}(int64(p))
	}
	var consumed sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for c := 0; c < 3; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				g, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				total += g.Len()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	consumed.Wait()
	if total != producers*perProducer {
		t.Errorf("consumed %d items, want %d", total, producers*perProducer)
	}
}

type testAcc struct{ n int }

func (a *testAcc) ItemDone() bool { a.n--; return a.n == 0 }

func TestExecPointerPreserved(t *testing.T) {
	q := newQueue(1, Options{Merge: true})
	a1, a2 := &testAcc{1}, &testAcc{2}
	push(t, q, Item{Travel: 1, Step: 0, Vertex: 9, Exec: a1})
	push(t, q, Item{Travel: 1, Step: 1, Vertex: 9, Exec: a2})
	g, _ := q.Pop()
	if g.Len() != 2 || g.Items(nil)[0].Exec.(*testAcc) != a1 || g.Items(nil)[1].Exec.(*testAcc) != a2 {
		t.Errorf("exec accumulators lost: %+v", g.Items(nil))
	}
	q.Close()
}

// TestPriorityInvariantQuick: under priority scheduling, a popped group's
// step is never larger than the smallest step that was eligible in the
// traversal's sub-queue at pop time.
func TestPriorityInvariantQuick(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		q := newQueue(1, Options{Priority: true})
		pending := map[int32]int{}
		for i := 0; i < 30; i++ {
			step := int32(r.Intn(8))
			push(t, q, item(1, step, 1000+i))
			pending[step]++
		}
		for i := 0; i < 30; i++ {
			g, ok := q.Pop()
			if !ok {
				t.Fatal("queue drained early")
			}
			got := g.Items(nil)[0].Step
			for s := int32(0); s < got; s++ {
				if pending[s] > 0 {
					t.Fatalf("popped step %d while %d items at step %d were eligible", got, pending[s], s)
				}
			}
			pending[got]--
		}
		q.Close()
	}
}

func TestEligibleLenRespectsGate(t *testing.T) {
	q := newQueue(1, Options{Gated: true})
	push(t, q, item(1, 0, 1), item(1, 1, 2), item(1, 1, 3))
	if got := eligibleLen(q, 1); got != 1 {
		t.Fatalf("eligible = %d, want 1 (only step 0)", got)
	}
	g, _ := q.Pop()
	if !q.Done(1, g.Len()) {
		t.Fatal("with step 0 done and step 1 gated, the traversal must be quiescent")
	}
	q.Release(1, 1)
	if got := eligibleLen(q, 1); got != 2 {
		t.Fatalf("eligible after release = %d, want 2", got)
	}
	if q.Done(1, 0) {
		t.Fatal("quiescent with released work buffered")
	}
	q.Close()
}

// eligibleLen is what a worker could pop of the traversal right now: the
// per-bucket counts up to its gate.
func eligibleLen(m *Multi, travel uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok {
		return 0
	}
	n := 0
	for _, b := range t.buckets {
		if b.step > t.gate {
			break
		}
		n += b.items
	}
	return n
}

// gate is a traversal's current gate (MaxInt32 when ungated or unknown).
func gate(m *Multi, travel uint64) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.travels[travel]; ok {
		return t.gate
	}
	return math.MaxInt32
}

func TestEnqueuedTimestampSet(t *testing.T) {
	q := newQueue(1, Options{})
	before := Now()
	push(t, q, item(1, 0, 1))
	g, ok := q.Pop()
	if !ok {
		t.Fatal("pop failed")
	}
	if g.Enqueued < before || g.Items(nil)[0].Enqueued != g.Enqueued || g.Popped < g.Enqueued || g.Popped > Now() {
		t.Errorf("Enqueued = %v, Popped = %v: want push start %v <= Enqueued <= Popped <= now", g.Enqueued, g.Popped, before)
	}
	q.Close()
}

// TestItemAndGroupSizes: the stamps are offsets on the executor clock, not
// time.Time values, which keeps an item at one cache line.
func TestItemAndGroupSizes(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n > 64 {
		t.Errorf("Item is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(Group{}); n > 56 {
		t.Errorf("Group is %d bytes, want <= 56", n)
	}
}

// pickWalk is Pop's level-1 choice the way it was made before the order slice
// existed — a range over the travels map — kept as the slice's oracle.
func pickWalk(m *Multi) (travel uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *travelQueue
	for _, t := range m.travels {
		if t.peek() == nil {
			continue
		}
		if best == nil || t.served < best.served || (t.served == best.served && t.arrival < best.arrival) {
			best = t
		}
	}
	if best == nil {
		return 0, false
	}
	return best.travel, true
}

// TestFairShareOrderAcrossThreeTravels: over a seeded schedule of pushes,
// pops, and drops followed by re-registration, every Pop serves the traversal
// the map walk would have picked.
func TestFairShareOrderAcrossThreeTravels(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	q := NewMulti(0)
	opts := []Options{{}, {Merge: true}, {Priority: true, Merge: true}}
	for tr, o := range opts {
		q.Register(uint64(tr), o)
	}
	pops := 0
	for i := 0; i < 4000; i++ {
		tr := uint64(r.Intn(len(opts)))
		switch p := r.Intn(100); {
		case p < 40:
			batch := make([]Item, 1+r.Intn(6))
			for j := range batch {
				batch[j] = item(tr, int32(r.Intn(4)), r.Intn(16))
			}
			push(t, q, batch...)
		case p < 97:
			want, ok := pickWalk(q)
			if !ok {
				continue // Pop would block
			}
			if g, _ := q.Pop(); g.Travel != want {
				t.Fatalf("op %d: popped travel %d, the walk picks %d", i, g.Travel, want)
			}
			pops++
		default:
			q.Drop(tr)
			q.Register(tr, opts[tr])
		}
		if len(q.order) != len(q.travels) {
			t.Fatalf("op %d: order holds %d queues, travels %d", i, len(q.order), len(q.travels))
		}
		for _, o := range q.order {
			if q.travels[o.travel] != o {
				t.Fatalf("op %d: order holds a queue of travel %d that travels does not", i, o.travel)
			}
		}
	}
	if pops < 1000 {
		t.Fatalf("only %d pops compared", pops)
	}
	q.Close()
}

// eligibleWalk is the O(groups) count the per-bucket counters replaced,
// kept as their oracle: every live group at or below the gate, counted where
// it currently sits.
func eligibleWalk(m *Multi, travel uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.travels[travel]
	if !ok {
		return 0
	}
	n := 0
	for _, b := range t.buckets {
		if b.step > t.gate {
			break
		}
		for _, g := range b.groups {
			if g.minStep == b.step { // a taken group counts n == 0
				n += int(g.n)
			}
		}
	}
	return n
}

// mapIndex is the merge index as it was before frontier.Index: a Go map from
// vertex to buffered group. refTravel is one traversal's sub-queue built on
// it the way travelQueue was — groups that own a []Item, merges that append —
// kept as the oracle for what Pop returns, and in what order.
type mapIndex map[model.VertexID]*refGroup

type refGroup struct {
	items   []Item
	minStep int32
	seq     uint64
	taken   bool
}

type refBucket struct {
	step   int32
	groups []*refGroup
}

type refTravel struct {
	opts    Options
	gate    int32
	seq     uint64
	byKey   mapIndex
	buckets []refBucket
}

func newRefTravel(opts Options) *refTravel {
	t := &refTravel{opts: opts, byKey: mapIndex{}, gate: math.MaxInt32}
	if opts.Gated {
		t.gate = 0
	}
	return t
}

func (t *refTravel) bucketFor(step int32) *refBucket {
	i := 0
	for i < len(t.buckets) && t.buckets[i].step < step {
		i++
	}
	if i == len(t.buckets) || t.buckets[i].step != step {
		t.buckets = slices.Insert(t.buckets, i, refBucket{step: step})
	}
	return &t.buckets[i]
}

func (t *refTravel) push(items []Item) {
	for _, it := range items {
		if g, ok := t.byKey[it.Vertex]; ok && t.opts.Merge {
			if it.Step < g.minStep {
				g.minStep = it.Step
				b := t.bucketFor(it.Step)
				b.groups = append(b.groups, g)
			}
			g.items = append(g.items, it)
			continue
		}
		g := &refGroup{items: []Item{it}, minStep: it.Step, seq: t.seq}
		t.seq++
		if t.opts.Merge {
			t.byKey[it.Vertex] = g
		}
		b := t.bucketFor(it.Step)
		b.groups = append(b.groups, g)
	}
}

func (t *refTravel) pop() *refGroup {
	var best *refGroup
	for bi := range t.buckets {
		b := &t.buckets[bi]
		if b.step > t.gate {
			break
		}
		for len(b.groups) > 0 && (b.groups[0].taken || b.groups[0].minStep != b.step) {
			b.groups = b.groups[1:]
		}
		if len(b.groups) == 0 {
			continue
		}
		if head := b.groups[0]; best == nil || head.seq < best.seq {
			best = head
		}
		if t.opts.Priority {
			break
		}
	}
	if best != nil {
		best.taken = true
		delete(t.byKey, best.items[0].Vertex)
	}
	return best
}

// TestEligibleLenMatchesWalk drives a seeded random schedule of Push (batches
// that repeat vertices at lower and higher steps, so merges both append and
// relocate, on behalf of several executions), Pop, Done of a popped group,
// Release and Drop followed by re-registration under every policy
// combination. After every operation the counters must agree with the walk,
// Done must report quiescence exactly when the walk finds nothing eligible
// and the schedule holds no popped group undone, and every Pop must return
// the group — vertex and items, in order — that the map-indexed reference
// returns.
func TestEligibleLenMatchesWalk(t *testing.T) {
	const travels, steps, verts = 3, 6, 24
	accs := []*testAcc{{1}, {2}, {3}}
	for mask := 0; mask < 8; mask++ {
		opts := Options{Merge: mask&1 != 0, Priority: mask&2 != 0, Gated: mask&4 != 0}
		r := rand.New(rand.NewSource(int64(100 + mask)))
		q := NewMulti(0)
		ref := make([]*refTravel, travels)
		running := make([]int, travels) // popped items not yet reported Done
		var held []Group                // the popped groups behind running
		for tr := uint64(0); tr < travels; tr++ {
			q.Register(tr, opts)
			ref[tr] = newRefTravel(opts)
		}
		check := func(op string, i int) {
			t.Helper()
			for tr := uint64(0); tr < travels; tr++ {
				walk := eligibleWalk(q, tr)
				if got := eligibleLen(q, tr); got != walk {
					t.Fatalf("%+v op %d (%s): eligible(%d) = %d, walk = %d", opts, i, op, tr, got, walk)
				}
				if got, want := q.Done(tr, 0), walk == 0 && running[tr] == 0; got != want {
					t.Fatalf("%+v op %d (%s): Done(%d, 0) = %v with walk %d and %d in process", opts, i, op, tr, got, walk, running[tr])
				}
			}
		}
		eligible := func() int {
			n := 0
			for tr := uint64(0); tr < travels; tr++ {
				n += eligibleLen(q, tr)
			}
			return n
		}
		pop := func(op string, i int) {
			t.Helper()
			g, ok := q.Pop()
			if !ok {
				t.Fatalf("%+v op %d (%s): pop failed with eligible work", opts, i, op)
			}
			want := ref[g.Travel].pop()
			got := g.Items(nil)
			for j := range got {
				got[j].Enqueued = 0
			}
			if want == nil || g.Vertex != want.items[0].Vertex || g.Len() != len(got) || !slices.Equal(got, want.items) {
				t.Fatalf("%+v op %d (%s): popped vertex %d items %+v, the reference pops %+v", opts, i, op, g.Vertex, got, want)
			}
			held = append(held, g)
			running[g.Travel] += g.Len()
			check(op, i)
		}
		done := func(op string, i, j int) {
			t.Helper()
			g := held[j]
			held = slices.Delete(held, j, j+1)
			running[g.Travel] -= g.Len()
			want := running[g.Travel] == 0 && eligibleWalk(q, g.Travel) == 0
			if got := q.Done(g.Travel, g.Len()); got != want {
				t.Fatalf("%+v op %d (%s): Done(%d, %d) = %v with %d left in process", opts, i, op, g.Travel, g.Len(), got, running[g.Travel])
			}
			check(op, i)
		}
		tag := model.VertexID(0)
		pops := 0
		for i := 0; i < 3000; i++ {
			switch p := r.Intn(100); {
			case p < 45:
				tr := uint64(r.Intn(travels))
				batch := make([]Item, 1+r.Intn(12))
				acc := accs[r.Intn(len(accs))]
				for j := range batch {
					if r.Intn(4) == 0 {
						acc = accs[r.Intn(len(accs))]
					}
					tag++ // every item distinct, so order inside a group shows
					batch[j] = Item{Travel: tr, Step: int32(r.Intn(steps)), Vertex: model.VertexID(r.Intn(verts)),
						Anc: tag, AncStep: int32(j), Dest: -1, Exec: acc}
				}
				push(t, q, batch...)
				ref[tr].push(batch)
				check("push", i)
			case p < 75:
				if eligible() == 0 {
					continue // Pop would block
				}
				pop("pop", i)
				pops++
			case p < 90:
				if len(held) > 0 {
					done("done", i, r.Intn(len(held)))
				}
			case p < 98:
				tr, step := r.Intn(travels), int32(r.Intn(steps))
				q.Release(uint64(tr), step)
				if opts.Gated && step > ref[tr].gate {
					ref[tr].gate = step
				}
				check("release", i)
			default:
				tr := uint64(r.Intn(travels))
				q.Drop(tr)
				// A dropped traversal's popped groups are nobody's count.
				held = slices.DeleteFunc(held, func(g Group) bool { return g.Travel == tr })
				running[tr] = 0
				if q.Done(tr, 0) {
					t.Fatalf("%+v op %d: dropped traversal %d reported quiescent", opts, i, tr)
				}
				q.Register(tr, opts)
				ref[tr] = newRefTravel(opts)
				check("drop", i)
			}
		}
		if pops < 500 {
			t.Fatalf("%+v: only %d pops compared", opts, pops)
		}
		// Drained, every counter is back at zero.
		for tr := uint64(0); tr < travels; tr++ {
			q.Release(tr, steps)
			ref[tr].gate = steps
		}
		for eligible() > 0 {
			pop("drain", -1)
		}
		for len(held) > 0 {
			done("drain", -1, 0)
		}
		if q.Len() != 0 {
			t.Fatalf("%+v: %d items left after draining every eligible one", opts, q.Len())
		}
		q.Close()
	}
}

func vkeys(vs ...int) []frontier.Key {
	keys := make([]frontier.Key, len(vs))
	for i, v := range vs {
		keys[i] = frontier.Key{Vertex: model.VertexID(v), Anc: model.VertexID(100 + i), AncStep: -1, Dest: -1}
	}
	return keys
}

// TestPushOwnsItsSlab: PushBatch keeps the slice it is handed as its record of
// the requests — a popped item is read out of the pushed array, not out of a
// copy — and writes nothing into it, neither on admission nor when a later
// merge chains onto one of the batch's groups: the neighbours' slots, which
// another reader of a shared frame may be looking at, stay as they were.
func TestPushOwnsItsSlab(t *testing.T) {
	q := newQueue(1, Options{Merge: true})
	acc := &testAcc{4}
	keys := vkeys(10, 11, 12)
	if _, err := q.PushBatch(1, 0, acc, keys, nil, len(keys)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.PushBatch(1, 3, acc, vkeys(10), nil, 1); err != nil {
		t.Fatal(err)
	}
	if want := vkeys(10, 11, 12); !slices.Equal(keys, want) {
		t.Fatalf("pushed keys are now %+v, pushed as %+v", keys, want)
	}
	keys[1].Anc = 777 // the test still owns the memory: visible only if the queue aliases it
	got := popAll(q)
	if len(got) != 3 {
		t.Fatalf("groups = %d, want 3", len(got))
	}
	if it := got[0].Items(nil); got[0].Len() != 2 || it[0].Step != 0 || it[1].Step != 3 || it[0].Anc != 100 || it[1].Anc != 100 {
		t.Errorf("group 0 = %+v, want vertex 10 at steps 0 and 3", it)
	}
	for i, want := range []Item{
		{Travel: 1, Vertex: 11, Anc: 777, AncStep: -1, Dest: -1, Exec: acc},
		{Travel: 1, Vertex: 12, Anc: 102, AncStep: -1, Dest: -1, Exec: acc},
	} {
		it := got[i+1].Items(nil)
		want.Enqueued = got[i+1].Enqueued
		if len(it) != 1 || it[0] != want {
			t.Errorf("group %d = %+v, want the untouched step-0 request %+v", i+1, it, want)
		}
	}
}

// TestPushBatchSkipsMasked: a masked key gets no node. It is neither popped
// nor counted in the depth, the limit or Done, and the keys that are pushed
// keep their own slots of the slice.
func TestPushBatchSkipsMasked(t *testing.T) {
	q := NewMulti(3)
	q.Register(1, Options{Merge: true})
	keys := vkeys(10, 11, 12, 13, 14)
	skip := []bool{true, false, true, false, false}
	depth, err := q.PushBatch(1, 2, &testAcc{3}, keys, skip, 3)
	if err != nil || depth != 3 {
		t.Fatalf("PushBatch = %d, %v; want depth 3 under a limit of 3", depth, err)
	}
	if _, err := q.PushBatch(1, 2, &testAcc{1}, vkeys(15, 16), []bool{false, false}, 2); err != ErrBackpressure {
		t.Fatalf("a fourth and fifth live key: %v, want backpressure", err)
	}
	if _, err := q.PushBatch(1, 2, &testAcc{0}, vkeys(15), []bool{true}, 0); err != nil {
		t.Fatalf("a batch with nothing live: %v", err)
	}
	var got []Item
	for range 3 {
		g, _ := q.Pop()
		got = g.Items(got)
	}
	if q.Len() != 0 || !q.Done(1, 3) {
		t.Fatalf("%d buffered after popping the live keys, or not quiescent", q.Len())
	}
	for i, v := range []model.VertexID{11, 13, 14} {
		if got[i].Vertex != v || got[i].Anc != keys[v-10].Anc || got[i].Step != 2 {
			t.Errorf("popped %+v, want vertex %d of the batch", got[i], v)
		}
	}
}

// TestPushTwiceSameBackingSlice is the repository benchmark's probe in small:
// one []Item pushed, in sub-slices, into one fresh queue after another. Push
// only reads it, so every queue pops the same groups and the items end as
// they began.
func TestPushTwiceSameBackingSlice(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	items := make([]Item, 512)
	for i := range items {
		items[i] = Item{Travel: 1, Step: int32(r.Intn(4)), Vertex: model.VertexID(r.Intn(200)), Anc: model.VertexID(i), Exec: &testAcc{i}}
	}
	before := slices.Clone(items)
	var rounds [2][]Item
	for round := range rounds {
		q := newQueue(1, Options{Priority: true, Merge: true})
		for lo := 0; lo < len(items); lo += 128 {
			if _, err := q.Push(items[lo : lo+128]); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range popAll(q) {
			rounds[round] = g.Items(rounds[round])
		}
		for i := range rounds[round] {
			rounds[round][i].Enqueued = 0
		}
	}
	if len(rounds[0]) != len(items) || !slices.Equal(rounds[0], rounds[1]) {
		t.Errorf("the second queue popped %d items differently from the first (%d)", len(rounds[1]), len(rounds[0]))
	}
	if !slices.Equal(items, before) {
		t.Error("Push wrote into the items it was handed")
	}
}

// TestPushAllocsPerBatch: admitting a 256-entry batch into a warm queue (merge
// index and bucket table at size) costs its header, its node slab and the
// bucket list's one growth — and one more, the key slice, through the Push
// adapter — whether or not three in ten entries merge onto a buffered group.
func TestPushAllocsPerBatch(t *testing.T) {
	// One allocation, except under the race detector, which keeps Grow's
	// temporary slice.
	grow := testing.AllocsPerRun(1, func() { growSink = slices.Grow([]*node(nil), 256) })
	for _, repeats := range []bool{false, true} {
		for _, opts := range []Options{{}, {Priority: true, Merge: true}} {
			r := rand.New(rand.NewSource(5))
			batch := make([]Item, 256)
			for i := range batch {
				batch[i] = item(1, 0, i)
				if repeats && i > 0 && r.Intn(10) < 3 {
					batch[i].Vertex = batch[r.Intn(i)].Vertex
				}
			}
			keys := make([]frontier.Key, len(batch))
			for i := range batch {
				keys[i].Vertex = batch[i].Vertex
			}
			q := newQueue(1, opts)
			drain := func() {
				for q.Len() > 0 {
					q.Pop()
				}
			}
			run := func() { q.PushBatch(1, 0, nil, keys, nil, len(keys)); drain() }
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs > 2+grow {
				t.Errorf("%+v repeats=%v: PushBatch of 256 entries allocates %.0f times, want <= 3", opts, repeats, allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { push(t, q, batch...); drain() }); allocs > 3+grow {
				t.Errorf("%+v repeats=%v: Push of 256 items allocates %.0f times, want <= 4", opts, repeats, allocs)
			}
			q.Close()
		}
	}
}

var growSink []*node

// BenchmarkPushPop is the shape of the repository benchmark's scheduler probe:
// one traversal's 32 Ki items over four steps, pushed in dispatch-sized
// batches and popped dry, with priority and merging on as in the GraphTrek
// engine. merge=30%: three items in ten repeat an earlier vertex (the probe's
// mix); merge=0%: every vertex is new, so every index probe inserts. One op
// is one item.
func BenchmarkPushPop(b *testing.B) {
	const n, batch = 1 << 15, 256
	for _, repeats := range []int{3, 0} {
		b.Run(fmt.Sprintf("merge=%d%%", repeats*10), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			items := make([]Item, n)
			for i := range items {
				v := r.Intn(n)
				if i > 0 && r.Intn(10) < repeats {
					v = int(items[r.Intn(i)].Vertex)
				}
				items[i] = item(1, int32(r.Intn(4)), v)
				if repeats == 0 {
					items[i].Vertex = model.VertexID(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				q := newQueue(1, Options{Priority: true, Merge: true})
				for lo := 0; lo < n; lo += batch {
					push(b, q, items[lo:lo+batch]...)
				}
				for q.Len() > 0 {
					q.Pop()
				}
				q.Close()
			}
		})
	}
}

// BenchmarkPopDone is a worker's traffic with the scheduler for one group:
// Pop hands it over and counts it in process, Done reports it processed and
// answers whether the traversal went quiescent. One op is one group, popped
// from a traversal with up to depth groups buffered over four steps; the
// pushes that refill it are not timed. The cost must not depend on depth.
func BenchmarkPopDone(b *testing.B) {
	for _, depth := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := newQueue(1, Options{Priority: true, Merge: true})
			batch := make([]Item, depth)
			for i := range batch {
				batch[i] = item(1, int32(i%4), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%depth == 0 {
					b.StopTimer()
					push(b, q, batch...)
					b.StartTimer()
				}
				g, _ := q.Pop()
				q.Done(g.Travel, g.Len())
			}
		})
	}
}
