package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/sched"
	"graphtrek/internal/wire"
)

// dispatchRig is a server with one GraphTrek-mode traversal registered and no
// workers, so a test can hand it dispatch frames and pop the executor itself:
// the path socket → Decode → handleDispatch → Push → Pop and nothing after.
func dispatchRig(tb testing.TB) (*Server, *travelState) {
	tb.Helper()
	c := newCluster(tb, 1, nil)
	s := NewServer(Config{ID: 0, Store: c.stores[0], Part: c.part}) // never bound: no worker pops
	tb.Cleanup(s.Close)
	ts := &travelState{id: 9, mode: ModeGraphTrek, tun: ModeGraphTrek.tuning(),
		rtn: make(map[rtnKey]*rtnRec)}
	s.travels[ts.id] = ts
	s.exec.Register(ts.id, sched.Options{Priority: ts.tun.priority, Merge: ts.tun.merge, Owner: ts})
	return s, ts
}

// dispatchFrame encodes one dispatch of n entries at step whose vertex ids
// start at base; three in ten repeat an earlier vertex of the frame when
// repeats is set.
func dispatchFrame(n int, step int32, base int, repeats bool) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	msg := wire.Message{Kind: wire.KindDispatch, TravelID: 9, Step: step, ExecID: uint64(base + 1), ParentExec: 1,
		Entries: make([]wire.Entry, n)}
	for i := range msg.Entries {
		msg.Entries[i] = wire.Entry{Vertex: model.VertexID(base + i), AncStep: -1, Dest: -1}
		if repeats && i > 0 && r.Intn(10) < 3 {
			msg.Entries[i].Vertex = msg.Entries[r.Intn(i)].Vertex
		}
	}
	return wire.Append(nil, &msg)
}

// receive runs one frame down the path and pops what it enqueued.
func receive(tb testing.TB, s *Server, ts *travelState, frame []byte) (entries int) {
	msg, err := wire.Decode(frame)
	if err != nil {
		tb.Fatal(err)
	}
	s.handleDispatch(1, msg, ts)
	for s.exec.Len() > 0 {
		g, _ := s.exec.Pop()
		entries += g.Len()
	}
	return entries
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDispatchEntryAllocBudget: a received entry is allocated once — its 24
// decoded bytes, which the executor keeps — plus one 40-byte scheduler node
// and 8 bytes of the step's bucket list (42.5 and 9 with the allocator's
// headers and size classes): 76 bytes between the socket and Pop, where the
// copies into Items and slab slots made it 224. The frame that finds the
// traversal's merge index too small also pays for its growth — on the very
// first frame 37 bytes an entry, which is what the looser bound allows.
func TestDispatchEntryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("byte budgets do not hold under the race detector")
	}
	const n = 256
	s, ts := dispatchRig(t)
	first, later := dispatchFrame(n, 2, 0, false), dispatchFrame(n, 2, 1000, false)
	for _, tc := range []struct {
		name   string
		frame  []byte
		budget float64
	}{{"first frame", first, 120}, {"later frame", later, 80}} {
		var got int
		per := float64(allocated(func() { got = receive(t, s, ts, tc.frame) })) / n
		t.Logf("%s: %.1f bytes allocated per entry", tc.name, per)
		if got != n {
			t.Fatalf("%s: popped %d entries of %d", tc.name, got, n)
		}
		if per > tc.budget {
			t.Errorf("%s: %.1f bytes allocated per entry between Decode and Pop, budget %.0f", tc.name, per, tc.budget)
		}
	}
}

// BenchmarkDispatchToPop times the receive path per entry: decode a dispatch
// frame, handleDispatch it into the executor, pop it dry. Frames repeat three
// vertices in ten, as a fanout frontier does, and land on one long-lived
// traversal, so the merge index is warm.
func BenchmarkDispatchToPop(b *testing.B) {
	for _, n := range []int{64, 256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s, ts := dispatchRig(b)
			frame := dispatchFrame(n, 2, 0, true)
			receive(b, s, ts, frame)
			b.ResetTimer()
			start := time.Now()
			bytes := allocated(func() {
				for i := 0; i < b.N; i++ {
					receive(b, s, ts, frame)
				}
			})
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/entry")
			b.ReportMetric(float64(bytes)/float64(b.N*n), "B/entry")
		})
	}
}

// twiceTransport delivers every dispatch twice: the second delivery is the
// same wire.Message value, so on the in-process fabric both receivers' work
// shares one Entries array (what rpc.Chaos duplication does at random).
type twiceTransport struct {
	rpc.Transport
	mu   *sync.Mutex
	sent *[][2][]wire.Entry // the slice as sent, and a copy taken then
}

func (tt twiceTransport) Send(to int, msg wire.Message) error {
	if msg.Kind == wire.KindDispatch && len(msg.Entries) > 0 {
		tt.mu.Lock()
		*tt.sent = append(*tt.sent, [2][]wire.Entry{msg.Entries, slices.Clone(msg.Entries)})
		tt.mu.Unlock()
		if err := tt.Transport.Send(to, msg); err != nil {
			return err
		}
	}
	return tt.Transport.Send(to, msg)
}

// TestDuplicatedDispatchSharesEntriesSafely: decoded entries are shared,
// read-only memory from Decode on. Every dispatch of a fan-out traversal is
// delivered twice; both copies' groups sit in the executor at once and are
// processed by different workers. Under -race any write into the shared array
// (the in-place compaction of a popped group's survivors once was one) fails
// the test; every engine must still return the reference answer and leave
// every sent array as it was sent.
func TestDuplicatedDispatchSharesEntriesSafely(t *testing.T) {
	var mu sync.Mutex
	var sent [][2][]wire.Entry
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
		if !slices.Equal(s[0], s[1]) {
			t.Fatalf("dispatch %d: the sent entries changed after they were sent", i)
		}
	}
}
