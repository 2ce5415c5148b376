package core

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/sched"
	"graphtrek/internal/wire"
)

var errForTest = errors.New("simulated storage failure")

// batchKeys spells a batch out key by key.
func batchKeys(b frontier.Batch) []frontier.Key {
	keys := make([]frontier.Key, b.Len())
	for i := range keys {
		keys[i] = b.At(i)
	}
	return keys
}

func TestOutboxSetDedupsWithinBatch(t *testing.T) {
	box := &outboxSet{}
	e := frontier.Key{Vertex: 7, Anc: 1, AncStep: 0, Dest: 2}
	if !box.add(e, 1) {
		t.Fatal("first add should be fresh")
	}
	if box.add(e, 2) {
		t.Fatal("second add of identical entry should be suppressed")
	}
	if box.pending() != 1 {
		t.Fatalf("pending = %d entries", box.pending())
	}
}

func TestOutboxSetDistinguishesProvenance(t *testing.T) {
	box := &outboxSet{}
	base := frontier.Key{Vertex: 7, Anc: 1, AncStep: 0, Dest: 2}
	variants := []frontier.Key{
		{Vertex: 8, Anc: 1, AncStep: 0, Dest: 2},  // different vertex
		{Vertex: 7, Anc: 2, AncStep: 0, Dest: 2},  // different ancestor
		{Vertex: 7, Anc: 1, AncStep: 1, Dest: 2},  // different ancestor step
		{Vertex: 7, Anc: 1, AncStep: 0, Dest: -1}, // different destination
	}
	box.add(base, 1)
	for i, v := range variants {
		if !box.add(v, 1) {
			t.Errorf("variant %d wrongly suppressed: rtn provenance must not collapse", i)
		}
	}
}

func TestOutboxSetSeenSurvivesTake(t *testing.T) {
	// The send-once-per-traversal property: draining the pending list must
	// not forget what was already sent.
	box := &outboxSet{}
	e1 := frontier.Key{Vertex: 1}
	e2 := frontier.Key{Vertex: 2}
	box.add(e1, 11)
	got, parent := box.take()
	if got.Len() != 1 || got.At(0) != e1 {
		t.Fatalf("take = %v", got)
	}
	if parent != 11 {
		t.Fatalf("parent = %d, want the first contributor", parent)
	}
	if box.add(e1, 12) {
		t.Fatal("re-adding a flushed entry must be suppressed")
	}
	if !box.add(e2, 13) {
		t.Fatal("a genuinely new entry must pass after take")
	}
	if got, parent := box.take(); got.Len() != 1 || got.At(0) != e2 || parent != 13 {
		t.Fatalf("second take = %v parent %d", got, parent)
	}
	if got, parent := box.take(); got.Len() != 0 || parent != 0 {
		t.Fatalf("empty take = %v parent %d", got, parent)
	}
}

// TestOutboxTakeAfterSecondTag: an outbox takes a batch under one rtn()
// tag, then gets keys under a second tag mixed with repeats of the first
// batch. Its set switches to per-key tags under the pending run, and the
// second take must hold exactly the new keys, in arrival order, each with
// its own tag, and neither batch may have room past its end, or a receiver's
// append could write into the set. The first batch, taken under one tag, must
// be the id column and the tag alone, and stay as it was.
func TestOutboxTakeAfterSecondTag(t *testing.T) {
	box := &outboxSet{}
	one := frontier.Key{Anc: 5, AncStep: 0, Dest: 2}
	var first []frontier.Key
	for v := 1; v <= 20; v++ { // past the set's first table
		e := one
		e.Vertex = model.VertexID(v)
		box.add(e, 1)
		first = append(first, e)
	}
	got, _ := box.take()
	if !slices.Equal(batchKeys(got), first) || got.Tags != nil || cap(got.IDs) != got.Len() {
		t.Fatalf("first take = %+v", got)
	}
	var want []frontier.Key
	for v := 1; v <= 30; v++ {
		e := frontier.Key{Vertex: model.VertexID(v), Anc: 6, AncStep: 0, Dest: 2}
		if !box.add(e, 2) {
			t.Fatalf("%+v, new under the second tag, was suppressed", e)
		}
		want = append(want, e)
		if v <= 20 && box.add(first[v-1], 2) {
			t.Fatalf("%+v, sent in the first batch, was added again", first[v-1])
		}
		if v > 20 {
			e = one
			e.Vertex = model.VertexID(v)
			if !box.add(e, 2) {
				t.Fatalf("%+v, new under the first tag, was suppressed", e)
			}
			want = append(want, e)
		}
	}
	second, parent := box.take()
	if !slices.Equal(batchKeys(second), want) || parent != 2 {
		t.Fatalf("second take = %v parent %d, want %v parent 2", batchKeys(second), parent, want)
	}
	if cap(second.IDs) != len(want) || cap(second.Tags) != len(want) {
		t.Errorf("the second batch has room for %d ids and %d tags, holds %d", cap(second.IDs), cap(second.Tags), len(want))
	}
	if !slices.Equal(batchKeys(got), first) {
		t.Fatal("the first batch changed under the second tag's adds")
	}
}

// TestExecAccCountdown: an execution of three entries ends with its last
// item, and the executor holds its traversal in process until every popped
// group is reported done — the count quiescence flushes read.
func TestExecAccCountdown(t *testing.T) {
	s, ts := dispatchRig(t)
	acc := &execAcc{id: 99}
	acc.pending.Store(3)
	if err := s.enqueue(ts, 0, acc, frontier.Batch{IDs: []model.VertexID{1, 2, 3}}, nil, 3); err != nil {
		t.Fatal(err)
	}
	var items []sched.Item
	for range 3 {
		g, _ := s.exec.Pop()
		if g.Owner() != ts {
			t.Fatalf("popped group owned by %v, want the traversal's state", g.Owner())
		}
		items = g.Items(items)
	}
	s.finishItems(ts, items[:2], nil)
	ts.flushMu.Lock()
	if len(ts.ended) != 0 {
		t.Fatal("execution ended early")
	}
	ts.flushMu.Unlock()
	if s.exec.Done(ts.id, 2) {
		t.Fatal("quiescent with a popped item not done")
	}
	s.finishItems(ts, items[2:], nil)
	ts.flushMu.Lock()
	if len(ts.ended) != 1 || ts.ended[0] != 99 {
		t.Fatalf("ended = %v", ts.ended)
	}
	ts.flushMu.Unlock()
	if !s.exec.Done(ts.id, 1) {
		t.Fatal("not quiescent after every popped item was done")
	}
}

func TestFinishItemsRecordsFailureOncePerExec(t *testing.T) {
	c := newCluster(t, 1, nil)
	ts := &travelState{
		id:  1,
		rtn: make(map[rtnKey]*rtnRec),
	}
	acc := &execAcc{id: 7}
	acc.pending.Store(2)
	items := []sched.Item{
		{Travel: 1, Vertex: 1, Exec: acc},
		{Travel: 1, Vertex: 2, Exec: acc},
	}
	c.servers[0].finishItems(ts, items, errForTest)
	ts.flushMu.Lock()
	defer ts.flushMu.Unlock()
	if len(ts.errs) != 1 {
		t.Fatalf("errs = %v, want the shared failure recorded once", ts.errs)
	}
	if len(ts.ended) != 1 || ts.ended[0] != 7 {
		t.Fatalf("ended = %v, want the execution terminated despite failure", ts.ended)
	}
}

func TestNewExecIDsUniqueAcrossServers(t *testing.T) {
	c := newCluster(t, 3, nil)
	seen := make(map[uint64]bool)
	for _, s := range c.servers {
		for i := 0; i < 1000; i++ {
			id := s.newExecID()
			if seen[id] {
				t.Fatalf("duplicate exec id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestBatchSizeTriggersEarlyFlush(t *testing.T) {
	// With BatchSize 4, a step producing many entries to one target must
	// split into multiple dispatch messages — and still return the right
	// answer.
	c := newCluster(t, 2, func(cfg *Config) { cfg.BatchSize = 4 })
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V().E("run").E("read")))
}

// sendLog records, in one total order, every message the servers of a
// cluster send.
type sendLog struct {
	mu   sync.Mutex
	sent []loggedSend
}

type loggedSend struct {
	from, to int
	msg      wire.Message
}

type loggingTransport struct {
	rpc.Transport
	log *sendLog
}

func (l loggingTransport) Send(to int, msg wire.Message) error {
	l.log.mu.Lock()
	l.log.sent = append(l.log.sent, loggedSend{l.Self(), to, msg})
	l.log.mu.Unlock()
	return l.Transport.Send(to, msg)
}

// TestDispatchOnePassPerExpansion pins what one expansion's outbox pass puts
// on the wire. Two step-0 vertices on server 0 fan out past BatchSize: the
// hub to 11 vertices of server 1 and 5 of server 0, the second source to 3 of
// the hub's destinations again plus 2 new ones on server 1. With one worker
// the sends are sequential, so each target must see batches of exactly
// BatchSize in the middle of a scan and the remainder at the flush; nothing
// is sent to a (target, step) twice; every child is registered at the
// coordinator no later than its parent's termination is reported (§IV-C);
// and each span's dispatch phase sits inside its scan phase. The coordinator
// is server 1, which owns neither source: server 0's reports to it cross the
// transport, where the log sees them.
func TestDispatchOnePassPerExpansion(t *testing.T) {
	const batchSize = 4
	log := &sendLog{}
	c := newWrappedCluster(t, 2,
		func(cfg *Config) { cfg.BatchSize, cfg.Workers = batchSize, 1 },
		func(_ int, tr rpc.Transport) rpc.Transport { return loggingTransport{tr, log} })
	// ownedBy draws the next n unused vertex ids that hash to the server.
	nextID := 1
	ownedBy := func(server, n int) []model.VertexID {
		var ids []model.VertexID
		for ; len(ids) < n; nextID++ {
			if id := model.VertexID(nextID); c.part.Owner(id) == server {
				ids = append(ids, id)
			}
		}
		return ids
	}
	sources := ownedBy(0, 2)
	far, near, extra := ownedBy(1, 11), ownedBy(0, 5), ownedBy(1, 2)
	for _, ids := range [][]model.VertexID{sources, far, near, extra} {
		for _, id := range ids {
			c.addVertex(t, model.Vertex{ID: id, Label: "V"})
		}
	}
	link := func(src model.VertexID, dsts []model.VertexID) {
		for _, dst := range dsts {
			c.addEdge(t, model.Edge{Src: src, Dst: dst, Label: "run"})
		}
	}
	link(sources[0], far)
	link(sources[0], near)
	link(sources[1], far[:3])
	link(sources[1], extra)

	plan := mustPlan(t, query.V(sources...).E("run"))
	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: 1, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(far) + len(near) + len(extra); len(got) != want {
		t.Fatalf("%d results, want %d", len(got), want)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	type sentKey struct {
		to   int
		step int32
		e    frontier.Key
	}
	once := make(map[sentKey]bool)
	sizes := make(map[int][]int)                            // target -> step-1 batch sizes in send order
	registered, ended := map[uint64]int{}, map[uint64]int{} // exec id -> index of the send reporting it
	for i, ls := range log.sent {
		switch ls.msg.Kind {
		case wire.KindExecEvents:
			for _, ref := range ls.msg.Created {
				registered[ref.ID] = i
			}
			for _, id := range ls.msg.Ended {
				ended[id] = i
			}
		case wire.KindDispatch:
			for _, e := range batchKeys(ls.msg.Batch()) {
				k := sentKey{ls.to, ls.msg.Step, e}
				if once[k] {
					t.Errorf("entry %+v sent to server %d for step %d twice", e, ls.to, ls.msg.Step)
				}
				once[k] = true
			}
			if ls.msg.Step == 1 {
				sizes[ls.to] = append(sizes[ls.to], len(ls.msg.Entries))
			}
		}
	}
	want := map[int][]int{1: {batchSize, batchSize, batchSize, 1}, 0: {batchSize, 1}}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("step-1 batch sizes per target = %v, want %v", sizes, want)
	}
	for _, ls := range log.sent {
		if ls.msg.Kind != wire.KindDispatch || ls.msg.ParentExec == 0 {
			continue // root executions are registered by the coordinator itself
		}
		reg, ok := registered[ls.msg.ExecID]
		if !ok {
			t.Errorf("child execution %d was never registered", ls.msg.ExecID)
			continue
		}
		if end, ok := ended[ls.msg.ParentExec]; !ok || reg > end {
			t.Errorf("child %d registered by send %d, after its parent %d's termination (send %d, reported %v)",
				ls.msg.ExecID, reg, ls.msg.ParentExec, end, ok)
		}
	}
	expanded := 0
	for _, s := range c.servers {
		for _, sp := range s.SpanDump(0).Spans {
			if sp.DispatchNs > sp.ScanNs {
				t.Errorf("span %d: DispatchNs %d exceeds ScanNs %d", sp.Exec, sp.DispatchNs, sp.ScanNs)
			}
			if sp.DispatchNs > 0 {
				expanded++
			}
		}
	}
	if expanded == 0 {
		t.Error("no span recorded a dispatch phase")
	}
}

// heldTransport parks the first send that hold matches until release is
// closed, and logs every send in the order it leaves.
type heldTransport struct {
	rpc.Transport
	hold    func(to int, msg wire.Message) bool
	log     *sendLog
	first   atomic.Bool
	parked  chan struct{} // closed once the first matching send is parked
	release chan struct{}
}

func newHeldTransport(hold func(to int, msg wire.Message) bool) *heldTransport {
	return &heldTransport{hold: hold, log: &sendLog{}, parked: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldTransport) Send(to int, msg wire.Message) error {
	if h.hold(to, msg) && h.first.CompareAndSwap(false, true) {
		close(h.parked)
		<-h.release
	}
	return loggingTransport{h.Transport, h.log}.Send(to, msg)
}

// holdServer0 passes server 0's outgoing transport through held.
func holdServer0(held *heldTransport) func(int, rpc.Transport) rpc.Transport {
	return func(id int, tr rpc.Transport) rpc.Transport {
		if id != 0 {
			return tr
		}
		held.Transport = tr
		return held
	}
}

// goFlush flushes ts on a goroutine and returns a channel closed when the
// flush has returned.
func goFlush(s *Server, ts *travelState) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.flushTravel(ts)
	}()
	return done
}

// awaitBriefly waits up to 100 ms for done: long enough for a flush that
// is not blocked to have sent.
func awaitBriefly(done chan struct{}) {
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
	}
}

// TestFlushesSendInTakeOrder holds the first of two flushes of one traversal
// in its report to the coordinator — the results and the child registration
// — while the second flush, which reports the termination of the execution
// whose outputs the first carries, runs. The coordinator must still receive
// the first flush's report before the second flush's Ended (§IV-C): were the
// Ended first, a balanced ledger would finish the traversal without those
// outputs.
func TestFlushesSendInTakeOrder(t *testing.T) {
	const travel, exec = 77, 42
	held := newHeldTransport(func(_ int, msg wire.Message) bool {
		return msg.TravelID == travel && msg.Kind == wire.KindExecEvents
	})
	c := newWrappedCluster(t, 2, nil, holdServer0(held))
	s := c.servers[0]
	plan := mustPlan(t, query.V(1).E("run"))
	ts := &travelState{id: travel, plan: plan, coord: 1, told: make([]atomic.Bool, 2),
		outbox: make([][]*outboxSet, plan.NumSteps()+1), rtn: make(map[rtnKey]*rtnRec)}

	// The first flush takes exec's outputs: a result and a child dispatch.
	s.bufferResult(ts, 5)
	ts.flushMu.Lock()
	s.outboxLocked(ts, 1, 1).add(rootTag.Key(9), exec)
	ts.flushMu.Unlock()
	first := goFlush(s, ts)
	<-held.parked
	// The second flush takes exec's termination while the first is held.
	ts.addEnded(exec)
	second := goFlush(s, ts)
	awaitBriefly(second)
	close(held.release)
	<-first
	<-second

	held.log.mu.Lock()
	defer held.log.mu.Unlock()
	report, ended := -1, -1
	for i, ls := range held.log.sent {
		if ls.msg.TravelID != travel || ls.to != int(ts.coord) || ls.msg.Kind != wire.KindExecEvents {
			continue
		}
		switch {
		case len(ls.msg.Verts) > 0 && len(ls.msg.Created) > 0:
			report = i
		case len(ls.msg.Ended) > 0:
			ended = i
		}
	}
	if report < 0 || ended < 0 {
		t.Fatalf("coordinator sends: results and created %d, ended %d; want both", report, ended)
	}
	if ended < report {
		t.Errorf("Ended{%d} left as send %d, before the first flush's results and Created (send %d)",
			exec, ended, report)
	}
}

// TestFirstMessageToEachServerCarriesPlan holds the first plan-carrying
// dispatch server 0 sends server 2 inside Send while a second flush of the
// traversal dispatches to server 2 too. Server 2 learns of the traversal
// only from a message that carries the plan, and until the held one is
// accepted nothing on the link is ahead of the second, so the second must
// carry the plan as well (DESIGN §8). Server 0 learnt of the traversal from
// server 1, its coordinator: only server 2 is untold.
func TestFirstMessageToEachServerCarriesPlan(t *testing.T) {
	const travel = 78
	held := newHeldTransport(func(to int, msg wire.Message) bool {
		return msg.TravelID == travel && to == 2 && len(msg.Plan) > 0
	})
	c := newWrappedCluster(t, 3, nil, holdServer0(held))
	s := c.servers[0]
	var ts *travelState
	s.withTravel(1, wire.Message{Kind: wire.KindDispatch, TravelID: travel, Coord: 1,
		Mode: uint8(ModeGraphTrek), Plan: mustPlan(t, query.V(1).E("run")).Encode()},
		func(_ int, _ wire.Message, got *travelState) { ts = got })
	if ts == nil {
		t.Fatal("a message carrying the plan did not register the traversal")
	}
	flush := func(v model.VertexID) chan struct{} {
		ts.flushMu.Lock()
		s.outboxLocked(ts, 1, 2).add(rootTag.Key(v), 42)
		ts.flushMu.Unlock()
		return goFlush(s, ts)
	}
	first := flush(9)
	<-held.parked
	second := flush(10)
	awaitBriefly(second)
	close(held.release)
	<-first
	<-second

	held.log.mu.Lock()
	defer held.log.mu.Unlock()
	sent := 0
	for i, ls := range held.log.sent {
		if ls.msg.TravelID != travel || ls.to != 2 {
			continue
		}
		if sent++; sent == 1 && len(ls.msg.Plan) == 0 {
			t.Errorf("server 0's first message to server 2 (send %d, entries %v) carries no plan", i, ls.msg.Entries)
		}
	}
	if sent != 2 {
		t.Errorf("server 0 sent server 2 %d messages, want 2", sent)
	}
}

// TestStartTravelOvertakenByPeerDispatch holds the coordinator's
// StartTravel to server 2 inside Send until server 1, seeded by its own
// StartTravel, has dispatched to server 2. That dispatch carries the plan
// and registers the traversal on server 2; the StartTravel that follows
// must still run server 2's seed execution, or the ledger never balances.
// In a scan-seeded and in a gated (broadcast) traversal the answer must
// equal the reference, with no message dropped as an orphan.
func TestStartTravelOvertakenByPeerDispatch(t *testing.T) {
	for _, mode := range []Mode{ModeGraphTrek, ModeSync} {
		held := newHeldTransport(func(to int, msg wire.Message) bool {
			return to == 2 && msg.Kind == wire.KindStartTravel
		})
		// Server 1's transport parks nothing: release is closed, so parked
		// only signals that server 1 dispatched to server 2.
		peer := newHeldTransport(func(to int, msg wire.Message) bool {
			return to == 2 && msg.Kind == wire.KindDispatch
		})
		close(peer.release)
		c := newWrappedCluster(t, 3, nil, func(id int, tr rpc.Transport) rpc.Transport {
			switch id {
			case 0:
				held.Transport = tr
				return held
			case 1:
				peer.Transport = tr
				return peer
			}
			return tr
		})
		// One User on each server; each runs to a vertex of the next server.
		var users, runs [3]model.VertexID
		for id, next := model.VertexID(1), 0; next < 6; id++ {
			if srv := c.part.Owner(id); next < 3 && srv == next {
				users[srv], next = id, next+1
			} else if next >= 3 && srv == (next-3+1)%3 {
				runs[next-3], next = id, next+1
			}
		}
		for i := range users {
			c.addVertex(t, model.Vertex{ID: users[i], Label: "User"})
			c.addVertex(t, model.Vertex{ID: runs[i], Label: "Execution"})
			c.addEdge(t, model.Edge{Src: users[i], Dst: runs[i], Label: "run"})
		}
		plan := mustPlan(t, query.VLabel("User").E("run"))
		want, err := query.Reference(c.global, plan)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: mode, Coordinator: 0})
		if err != nil {
			t.Fatal(err)
		}
		<-held.parked
		select {
		case <-peer.parked:
		case <-time.After(5 * time.Second):
			t.Errorf("%v: server 1 never dispatched to server 2", mode)
		}
		close(held.release)
		got, err := h.Wait(10 * time.Second)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !sameIDs(got, want.Results) {
			t.Errorf("%v: got %v want %v", mode, got, want.Results)
		}
		peer.log.mu.Lock()
		for _, ls := range peer.log.sent {
			if ls.to == 2 && ls.msg.Kind == wire.KindDispatch {
				if len(ls.msg.Plan) == 0 {
					t.Errorf("%v: server 1's first dispatch to server 2 carries no plan", mode)
				}
				break
			}
		}
		peer.log.mu.Unlock()
		c.checkNoOrphans(t)
	}
}

// TestPointQueryControlMessagesFlatInN holds a point query's control
// traffic to the servers it touches, at every cluster width. The query
// starts at its source's owner, which coordinates it, and reaches k - 1
// other servers. No server is sent StartTravel, exactly those k - 1 peers
// are sent TravelDone, no server outside the k hears of the traversal, and
// the coordinator sends itself no report: 2(k - 1) control messages
// whatever N is, where the broadcast cost 2(N - 1).
func TestPointQueryControlMessagesFlatInN(t *testing.T) {
	for _, n := range []int{3, 8, 16} {
		log := &sendLog{}
		c := newWrappedCluster(t, n, nil,
			func(_ int, tr rpc.Transport) rpc.Transport { return loggingTransport{tr, log} })
		k := min(3, n-1)
		// The source lives on server 0; one destination on each of the
		// servers 1 .. k-1.
		ownedBy := func(server int) model.VertexID {
			for id := model.VertexID(1); ; id++ {
				if c.part.Owner(id) == server {
					return id
				}
			}
		}
		src := ownedBy(0)
		c.addVertex(t, model.Vertex{ID: src, Label: "V"})
		touched := map[int]bool{0: true}
		for srv := 1; srv < k; srv++ {
			dst := ownedBy(srv)
			c.addVertex(t, model.Vertex{ID: dst, Label: "V"})
			c.addEdge(t, model.Edge{Src: src, Dst: dst, Label: "run"})
			touched[srv] = true
		}
		base := runtime.NumGoroutine()
		h, err := c.client.SubmitPlanAsync(mustPlan(t, query.V(src).E("run")),
			SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k-1 || h.Coordinator() != 0 {
			t.Fatalf("N=%d: %d results from coordinator %d, want %d from server 0", n, len(got), h.Coordinator(), k-1)
		}
		// Every touched server releases the traversal, so every TravelDone
		// has been sent.
		waitForQuiescence(t, c, base+8)

		log.mu.Lock()
		released := map[int]bool{}
		for _, ls := range log.sent {
			if ls.msg.TravelID != h.TravelID() || ls.to >= n {
				continue // client traffic
			}
			switch {
			case !touched[ls.to]:
				t.Errorf("N=%d: server %d, outside the traversal, was sent %v", n, ls.to, ls.msg.Kind)
			case ls.msg.Kind == wire.KindStartTravel:
				t.Errorf("N=%d: server %d sent StartTravel to server %d", n, ls.from, ls.to)
			case ls.msg.Kind == wire.KindTravelDone:
				if released[ls.to] || ls.from != 0 {
					t.Errorf("N=%d: TravelDone %d -> %d sent twice or not by the coordinator", n, ls.from, ls.to)
				}
				released[ls.to] = true
			case ls.from == 0 && ls.to == 0 && (ls.msg.Kind == wire.KindExecEvents || ls.msg.Kind == wire.KindResult):
				t.Errorf("N=%d: the coordinator sent itself %v", n, ls.msg.Kind)
			}
		}
		log.mu.Unlock()
		if len(released) != k-1 || released[0] {
			t.Errorf("N=%d: TravelDone went to %v, want the %d touched peers", n, released, k-1)
		}
	}
}
