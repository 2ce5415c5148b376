package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphtrek/internal/frontier"
	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/sched"
	"graphtrek/internal/wire"
)

// dispatchRig is a server with one GraphTrek-mode traversal registered and no
// workers, so a test can hand it dispatch frames and pop the executor itself:
// the path socket → Decode → handleDispatch → Push → Pop → processGroup. Its
// store holds no vertex, so a served request ends at its fetch.
func dispatchRig(tb testing.TB) (*Server, *travelState) {
	tb.Helper()
	c := newCluster(tb, 1, nil)
	s := NewServer(Config{ID: 0, Store: c.stores[0], Part: c.part}) // never bound: no worker pops
	tb.Cleanup(s.Close)
	ts := &travelState{id: 9, mode: ModeGraphTrek, tun: ModeGraphTrek.tuning(),
		plan: mustPlan(tb, query.V(1).E("e").E("e").E("e")), rtn: make(map[rtnKey]*rtnRec)}
	s.travels[ts.id] = ts
	s.exec.Register(ts.id, sched.Options{Priority: ts.tun.priority, Merge: ts.tun.merge, Owner: ts})
	return s, ts
}

// dispatchFrame encodes dispatch exec of n entries at step whose vertex ids
// start at base; three in ten repeat an earlier vertex of the frame when
// repeats is set.
func dispatchFrame(n int, step int32, base int, exec uint64, repeats bool) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	msg := wire.Message{Kind: wire.KindDispatch, TravelID: 9, Step: step, ExecID: exec, ParentExec: 1,
		Entries: make([]model.VertexID, n), Tag: rootTag}
	for i := range msg.Entries {
		msg.Entries[i] = model.VertexID(base + i)
		if repeats && i > 0 && r.Intn(10) < 3 {
			msg.Entries[i] = msg.Entries[r.Intn(i)]
		}
	}
	return wire.Append(nil, &msg)
}

// receive runs one frame down the path and serves what it enqueued, as a
// worker does up to its flush, with ex as the worker's scratch. It returns
// the number of requests served.
func receive(tb testing.TB, s *Server, ts *travelState, ex *expansion, frame []byte) (served int) {
	msg, err := wire.Decode(frame)
	if err != nil {
		tb.Fatal(err)
	}
	s.handleDispatch(1, msg, ts)
	for s.exec.Len() > 0 {
		g, _ := s.exec.Pop()
		ex.items = g.Items(ex.items[:0])
		s.processGroup(ts, g, ex)
		s.exec.Done(ts.id, g.Len())
		served += g.Len()
	}
	ts.ended = ts.ended[:0] // the rig's traversal is never flushed
	return served
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDispatchEntryAllocBudget: a received entry is allocated once — its 8
// decoded bytes of vertex id (a batch under one tag keeps the tag once),
// which the executor keeps — plus one 40-byte scheduler node and 8 bytes of
// the step's bucket list (42.5 and 9 with the allocator's headers and size
// classes), and the affiliate cache keeps its key: the vertex in the step's
// set (8 bytes; the tag is held once per set) and its slot in the set's
// table, whose growth seven frames share. Between the socket and the end of
// serving it, that was 182 bytes an entry while the cache was checked after
// Pop, 177 once it was checked at admission, 121.4 since a set holds vertex
// ids, not 24-byte keys, and 101.5 since a decoded batch holds them too. The
// first frame also finds the traversal's merge index and cache set empty and
// pays for their growth: 227, then 161, then 136.2, then 120.3 bytes an
// entry. Both budgets sit just above the last numbers, so 24-byte decoded
// entries fail them. The counter is the process's, and now and then
// something else allocates inside the window (up to 142 bytes an entry on the
// first frame in 60 runs, when entries were 24 bytes), so each case counts
// its least over three fresh rigs.
func TestDispatchEntryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("byte budgets do not hold under the race detector")
	}
	const n = 256
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = dispatchFrame(n, 2, i*n, uint64(i+1), false)
	}
	cases := []struct {
		name   string
		frames [][]byte
		budget float64
	}{{"first frame", frames[:1], 130}, {"later frames", frames[1:], 110}}
	least := make([]float64, len(cases))
	for rig := 0; rig < 3; rig++ {
		s, ts := dispatchRig(t)
		ex := newExpansion()
		for i, tc := range cases {
			var got int
			per := float64(allocated(func() {
				for _, f := range tc.frames {
					got += receive(t, s, ts, ex, f)
				}
			})) / float64(n*len(tc.frames))
			if got != n*len(tc.frames) {
				t.Fatalf("%s: served %d entries of %d", tc.name, got, n*len(tc.frames))
			}
			if rig == 0 || per < least[i] {
				least[i] = per
			}
		}
	}
	for i, tc := range cases {
		t.Logf("%s: %.1f bytes allocated per entry", tc.name, least[i])
		if least[i] > tc.budget {
			t.Errorf("%s: %.1f bytes allocated per entry between Decode and serving it, budget %.0f", tc.name, least[i], tc.budget)
		}
	}
}

// encodingTransport hands each message to a goroutine that encodes it after
// Send returned, as the TCP transport's writer does, and keeps the frames.
type encodingTransport struct {
	rpc.Transport // nil: only Send is called
	msgs          chan wire.Message
	frames        [][]byte
	done          chan struct{}
}

func newEncodingTransport() *encodingTransport {
	// Room for several messages, so the writer can lag a few sends behind
	// the worker, as a TCP writer does.
	et := &encodingTransport{msgs: make(chan wire.Message, 16), done: make(chan struct{})}
	go func() {
		defer close(et.done)
		for msg := range et.msgs {
			et.frames = append(et.frames, wire.Append(nil, &msg))
		}
	}()
	return et
}

func (et *encodingTransport) Send(_ int, msg wire.Message) error {
	et.msgs <- msg
	return nil
}

// sendRig is a server whose outgoing messages go to tr, and a traversal on it
// coordinated by server 1, with every server told of the plan.
func sendRig(tb testing.TB, tr rpc.Transport, batchSize int) (*Server, *travelState) {
	tb.Helper()
	s := NewServer(Config{ID: 0, Store: gstore.NewMemStore(), Part: partition.NewHash(3), BatchSize: batchSize})
	tb.Cleanup(s.Close)
	s.tr = tr // never bound: no worker runs
	plan := mustPlan(tb, query.V(1).E("e").E("e"))
	ts := &travelState{id: 9, plan: plan, coord: 1, told: make([]atomic.Bool, 3),
		outbox: make([][]*outboxSet, plan.NumSteps()+1), rtn: make(map[rtnKey]*rtnRec)}
	for i := range ts.told {
		ts.told[i].Store(true)
	}
	return s, ts
}

// TestDispatchSendsOutboxColumns is the send side of
// TestDispatchEntryAllocBudget. A scan's destinations go through
// bufferDispatch and flushTravel to a transport that encodes each message on
// a goroutine of its own, after Send returned, while the worker goes on
// adding keys to the same outbox sets: the sets grow, rehash and, from the
// middle on, switch to per-key tags under the runs already taken. Under
// -race a write into a taken run fails the test, and the frames must carry
// every key the worker added to each target once, in the order it was added.
// Then, with the outbox sets reserved at size, the bytes a round allocates
// must not grow with its entries: take hands out the set's own columns, with
// no copy per entry.
func TestDispatchSendsOutboxColumns(t *testing.T) {
	et := newEncodingTransport()
	s, ts := sendRig(t, et, 64)
	r := rand.New(rand.NewSource(50))
	ex := newExpansion()
	want := make([][]frontier.Key, 3) // per target, each new key in the order it was added
	type sentKey struct {
		target int
		k      frontier.Key
	}
	seen := make(map[sentKey]bool)
	for round := 0; round < 300; round++ {
		tag := rootTag
		if round >= 150 && round%3 == 0 {
			tag = frontier.Tag{Anc: model.VertexID(round % 7), AncStep: 0, Dest: 2}
		}
		ex.dsts = ex.dsts[:0]
		for range 1 + r.Intn(40) {
			ex.dsts = append(ex.dsts, model.VertexID(r.Intn(3000)))
		}
		for _, v := range ex.dsts {
			k := tag.Key(v)
			if target := s.cfg.Part.Owner(v); !seen[sentKey{target, k}] {
				seen[sentKey{target, k}] = true
				want[target] = append(want[target], k)
			}
		}
		s.bufferDispatch(ts, ex, 5, 1, tag)
		if r.Intn(4) == 0 {
			s.flushTravel(ts)
		}
	}
	s.flushTravel(ts)
	close(et.msgs)
	<-et.done
	got := make([][]frontier.Key, 3)
	for _, f := range et.frames {
		msg, err := wire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Kind == wire.KindDispatch {
			target := s.cfg.Part.Owner(msg.Entries[0])
			got[target] = append(got[target], batchKeys(msg.Batch())...)
		}
	}
	for target := range want {
		if !slices.Equal(got[target], want[target]) {
			t.Errorf("target %d: the frames carry %d keys, %d were added; the first difference is at %d",
				target, len(got[target]), len(want[target]), firstDiff(got[target], want[target]))
		}
	}
	if ts.outbox[1][0].seen.Batch(0).Tags == nil {
		t.Error("no outbox set switched to per-key tags: the rounds under a second tag did not reach it")
	}

	if raceEnabled {
		return // byte counts do not hold under the race detector
	}
	perRound := func(n int) float64 {
		least := 0.0
		for rig := 0; rig < 3; rig++ {
			s, ts := sendRig(t, discardTransport{}, 1<<20)
			const rounds = 16
			ts.flushMu.Lock()
			for target := range 3 {
				s.outboxLocked(ts, 1, target).seen.Reserve(rounds * n)
			}
			ts.flushMu.Unlock()
			ex := newExpansion()
			ex.dsts = make([]model.VertexID, n)
			bytes := float64(allocated(func() {
				for round := range rounds {
					for i := range ex.dsts {
						ex.dsts[i] = model.VertexID(round*n + i)
					}
					s.bufferDispatch(ts, ex, 5, 1, rootTag)
					s.flushTravel(ts)
				}
			})) / rounds
			if rig == 0 || bytes < least {
				least = bytes
			}
		}
		return least
	}
	small, large := perRound(64), perRound(1024)
	perEntry := (large - small) / (1024 - 64)
	t.Logf("a round allocates %.0f bytes with 64 entries, %.0f with 1024: %.2f bytes an entry", small, large, perEntry)
	if perEntry > 2 {
		t.Errorf("bufferDispatch and flushTravel allocate %.2f bytes an entry with the outbox sets at size, want none", perEntry)
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []frontier.Key) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// discardTransport accepts every message and drops it.
type discardTransport struct{ rpc.Transport }

func (discardTransport) Send(int, wire.Message) error { return nil }

// BenchmarkDispatchToPop times the receive path per entry: decode a dispatch
// frame, handleDispatch it into the executor, pop it dry and serve the
// groups. Frames repeat three vertices in ten, as a fanout frontier does, and
// land on one long-lived traversal, so the merge index is warm. A fresh frame
// brings only vertices new to the traversal; a repeating one brings half of
// the previous frame's again, as half of a fanout's received entries are
// repeats across frames.
func BenchmarkDispatchToPop(b *testing.B) {
	for _, n := range []int{64, 256, 4096} {
		for _, shape := range []struct {
			name   string
			stride int // vertex-id distance between consecutive frames
		}{{"fresh", n}, {"repeating", n / 2}} {
			b.Run(fmt.Sprintf("entries=%d/%s", n, shape.name), func(b *testing.B) {
				s, ts := dispatchRig(b)
				ex := newExpansion()
				receive(b, s, ts, ex, dispatchFrame(n, 2, 0, 1, true))
				var elapsed time.Duration
				var bytes uint64
				for i := 1; i <= b.N; i++ {
					frame := dispatchFrame(n, 2, i*shape.stride, uint64(i+1), true)
					bytes += allocated(func() {
						start := time.Now()
						receive(b, s, ts, ex, frame)
						elapsed += time.Since(start)
					})
				}
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*n), "ns/entry")
				b.ReportMetric(float64(bytes)/float64(b.N*n), "B/entry")
			})
		}
	}
}

// twiceTransport delivers every dispatch twice: the second delivery is the
// same wire.Message value, so on the in-process fabric both receivers' work
// shares one batch's columns (what rpc.Chaos duplication does at random) with
// each other and with the sender's outbox set, which goes on growing.
type twiceTransport struct {
	rpc.Transport
	mu   *sync.Mutex
	sent *[][2]frontier.Batch // the batch as sent, and a copy taken then
}

func (tt twiceTransport) Send(to int, msg wire.Message) error {
	if msg.Kind == wire.KindDispatch && len(msg.Entries) > 0 {
		b := msg.Batch()
		tt.mu.Lock()
		*tt.sent = append(*tt.sent, [2]frontier.Batch{b, {IDs: slices.Clone(b.IDs), Tag: b.Tag, Tags: slices.Clone(b.Tags)}})
		tt.mu.Unlock()
		if err := tt.Transport.Send(to, msg); err != nil {
			return err
		}
	}
	return tt.Transport.Send(to, msg)
}

// TestDuplicatedDispatchSharesEntriesSafely: a batch's columns are shared,
// read-only memory from the outbox's take on. Every dispatch of a fan-out
// traversal is delivered twice; both copies' groups sit in the executor at
// once and are processed by different workers, while the sender's outbox set
// takes in more keys. Under -race any write into the shared arrays (the
// in-place compaction of a popped group's survivors once was one, an outbox
// set writing a key it had handed out would be another) fails the test; every
// engine must still return the reference answer and leave every sent batch as
// it was sent.
func TestDuplicatedDispatchSharesEntriesSafely(t *testing.T) {
	var mu sync.Mutex
	var sent [][2]frontier.Batch
	c := newWrappedCluster(t, 3, func(cfg *Config) { cfg.Workers, cfg.BatchSize = 4, 64 },
		func(_ int, tr rpc.Transport) rpc.Transport { return twiceTransport{tr, &mu, &sent} })
	r := rand.New(rand.NewSource(4))
	const nVerts = 400
	for i := 1; i <= nVerts; i++ {
		c.addVertex(t, model.Vertex{ID: model.VertexID(i), Label: "N"})
	}
	for i := 1; i <= nVerts; i++ {
		for _, dst := range r.Perm(nVerts)[:5] {
			c.addEdge(t, model.Edge{Src: model.VertexID(i), Dst: model.VertexID(dst + 1), Label: "e"})
		}
	}
	for _, q := range []*query.Travel{
		query.V(1, 2, 3).E("e").E("e").E("e"),
		query.V(1, 2, 3).E("e").Rtn().E("e").E("e"),
	} {
		c.runAllModes(t, mustPlan(t, q))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) < 20 {
		t.Fatalf("only %d dispatches were duplicated", len(sent))
	}
	for i, s := range sent {
		if !reflect.DeepEqual(s[0], s[1]) {
			t.Fatalf("dispatch %d: the sent entries changed after they were sent", i)
		}
	}
}

// TestDuplicatedDispatchStartsOnce: a server starts an execution once per
// traversal. The second copy of a dispatch finds every key admitted by the
// first, whose items still wait in the queue; run as an execution of its own
// it would end at once and report the first copy's id ended before that
// copy's items were served, and the ledger could complete the traversal
// without them. The copy is dropped, and the id ends once, after serving.
func TestDuplicatedDispatchStartsOnce(t *testing.T) {
	s, ts := dispatchRig(t)
	const n = 16
	frame := dispatchFrame(n, 2, 0, 7, false)
	for range 2 {
		msg, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		s.handleDispatch(1, msg, ts)
	}
	ts.flushMu.Lock()
	ended := slices.Clone(ts.ended)
	ts.flushMu.Unlock()
	if len(ended) != 0 {
		t.Fatalf("execution reported ended %v with its %d items still queued", ended, s.exec.Len())
	}
	if m := s.Metrics(); s.exec.Len() != n || m.Received != n || m.Redundant != 0 {
		t.Fatalf("queued %d, received %d, redundant %d; want the first copy's %d entries once",
			s.exec.Len(), m.Received, m.Redundant, n)
	}
	var served int
	ex := newExpansion()
	for s.exec.Len() > 0 {
		g, _ := s.exec.Pop()
		ex.items = g.Items(ex.items[:0])
		s.processGroup(ts, g, ex)
		served += g.Len()
	}
	if served != n || !slices.Equal(ts.ended, []uint64{7}) {
		t.Fatalf("served %d, ended %v; want %d served and execution 7 ended once", served, ts.ended, n)
	}
}
