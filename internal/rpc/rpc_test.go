package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphtrek/internal/wire"
)

// collector accumulates received messages behind a mutex.
type collector struct {
	mu   sync.Mutex
	msgs []wire.Message
	from []int
}

func (c *collector) handle(from int, msg wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msg)
	c.from = append(c.from, from)
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFabricBasicDelivery(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	var c collector
	for i := 0; i < 3; i++ {
		if err := f.Endpoint(i).Start(c.handle); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Endpoint(0).Send(1, wire.Message{Kind: wire.KindResult, TravelID: 9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.from[0] != 0 || c.msgs[0].TravelID != 9 {
		t.Errorf("got from=%d msg=%+v", c.from[0], c.msgs[0])
	}
}

func TestFabricSelfSend(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	var c collector
	f.Endpoint(0).Start(c.handle)
	if err := f.Endpoint(0).Send(0, wire.Message{Kind: wire.KindStepGo}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
}

func TestFabricPerPairFIFO(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	var c collector
	f.Endpoint(0).Start(c.handle)
	f.Endpoint(1).Start(c.handle)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := f.Endpoint(0).Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.len() == n })
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.msgs {
		if m.TravelID != uint64(i) {
			t.Fatalf("message %d has id %d: FIFO violated", i, m.TravelID)
		}
	}
}

func TestFabricInvalidDestination(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	f.Endpoint(0).Start(func(int, wire.Message) {})
	if err := f.Endpoint(0).Send(5, wire.Message{}); err == nil {
		t.Error("send to unknown node should error")
	}
	if err := f.Endpoint(0).Send(-1, wire.Message{}); err == nil {
		t.Error("send to negative node should error")
	}
}

func TestFabricSendAfterCloseErrors(t *testing.T) {
	f := NewFabric(2)
	f.Endpoint(0).Start(func(int, wire.Message) {})
	f.Endpoint(1).Start(func(int, wire.Message) {})
	f.Endpoint(1).Close()
	if err := f.Endpoint(0).Send(1, wire.Message{}); err != ErrClosed {
		t.Errorf("send to closed endpoint = %v, want ErrClosed", err)
	}
	f.Close()
}

func TestFabricDoubleStartErrors(t *testing.T) {
	f := NewFabric(1)
	defer f.Close()
	ep := f.Endpoint(0)
	if err := ep.Start(func(int, wire.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Start(func(int, wire.Message) {}); err == nil {
		t.Error("second Start should error")
	}
}

func TestFabricConcurrentSenders(t *testing.T) {
	f := NewFabric(4)
	defer f.Close()
	var total atomic.Int64
	for i := 0; i < 4; i++ {
		f.Endpoint(i).Start(func(int, wire.Message) { total.Add(1) })
	}
	var wg sync.WaitGroup
	const per = 500
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f.Endpoint(s).Send((s+i)%4, wire.Message{Kind: wire.KindResult}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, func() bool { return total.Load() == 4*per })
}

func newTCPPair(t testing.TB, h0, h1 Handler) (*TCP, *TCP) {
	t.Helper()
	// Bind both listeners on ephemeral ports, then exchange real addrs.
	t0, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"}, h0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(1, []string{t0.Addr(), "127.0.0.1:0"}, h1)
	if err != nil {
		t0.Close()
		t.Fatal(err)
	}
	patched := append([]string(nil), t0.addrs...)
	patched[1] = t1.Addr()
	if err := t0.PatchAddrs(patched); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

func TestTCPDelivery(t *testing.T) {
	var c collector
	t0, _ := newTCPPair(t, c.handle, c.handle)
	msg := wire.Message{Kind: wire.KindDispatch, TravelID: 3, Entries: []wire.Entry{{Vertex: 8, Dest: -1}}}
	if err := t0.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.from[0] != 0 || c.msgs[0].TravelID != 3 || len(c.msgs[0].Entries) != 1 {
		t.Errorf("got from=%d msg=%+v", c.from[0], c.msgs[0])
	}
}

func TestTCPBidirectionalAndFIFO(t *testing.T) {
	var c0, c1 collector
	t0, t1 := newTCPPair(t, c0.handle, c1.handle)
	const n = 200
	for i := 0; i < n; i++ {
		if err := t0.Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := t1.Send(0, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c0.len() == n && c1.len() == n })
	for name, c := range map[string]*collector{"c0": &c0, "c1": &c1} {
		c.mu.Lock()
		for i, m := range c.msgs {
			if m.TravelID != uint64(i) {
				t.Errorf("%s: message %d has id %d", name, i, m.TravelID)
			}
		}
		c.mu.Unlock()
	}
}

func TestTCPSelfSend(t *testing.T) {
	var c collector
	t0, _ := newTCPPair(t, c.handle, func(int, wire.Message) {})
	if err := t0.Send(0, wire.Message{Kind: wire.KindStepGo, Step: 4}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
}

func TestTCPInvalidDestination(t *testing.T) {
	t0, _ := newTCPPair(t, func(int, wire.Message) {}, func(int, wire.Message) {})
	if err := t0.Send(9, wire.Message{}); err == nil {
		t.Error("send to unknown node should error")
	}
}

func TestTCPCloseIsClean(t *testing.T) {
	var c collector
	t0, t1 := newTCPPair(t, c.handle, c.handle)
	t0.Send(1, wire.Message{Kind: wire.KindResult})
	waitFor(t, func() bool { return c.len() == 1 })
	if err := t0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t0.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := t0.Send(1, wire.Message{}); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
	_ = t1.Close()
}

func TestTCPManyNodes(t *testing.T) {
	const n = 5
	var c [n]collector
	nodes := make([]*TCP, n)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	// Start sequentially, patching in real addresses as they bind.
	for i := 0; i < n; i++ {
		node, err := NewTCP(i, append([]string(nil), addrs...), c[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = node.Addr()
		nodes[i] = node
		defer node.Close()
	}
	// Everyone now knows the final address list.
	for _, node := range nodes {
		if err := node.PatchAddrs(addrs); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if err := nodes[s].Send(d, wire.Message{Kind: wire.KindResult, TravelID: uint64(s*n + d)}); err != nil {
				t.Fatalf("send %d->%d: %v", s, d, err)
			}
		}
	}
	waitFor(t, func() bool {
		for i := range c {
			if c[i].len() != n {
				return false
			}
		}
		return true
	})
	for i := range c {
		c[i].mu.Lock()
		seen := map[uint64]bool{}
		for _, m := range c[i].msgs {
			seen[m.TravelID] = true
		}
		c[i].mu.Unlock()
		for s := 0; s < n; s++ {
			if !seen[uint64(s*n+i)] {
				t.Errorf("node %d missing message from %d", i, s)
			}
		}
	}
}

func BenchmarkFabricSend(b *testing.B) {
	f := NewFabric(2)
	defer f.Close()
	var n atomic.Int64
	f.Endpoint(0).Start(func(int, wire.Message) {})
	f.Endpoint(1).Start(func(int, wire.Message) { n.Add(1) })
	msg := wire.Message{Kind: wire.KindDispatch, Entries: make([]wire.Entry, 8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Endpoint(0).Send(1, msg); err != nil {
			b.Fatal(err)
		}
	}
	for n.Load() < int64(b.N) {
		time.Sleep(time.Microsecond)
	}
}

// reportBatching reports how many frames the pair's writes and reads each
// carried.
func reportBatching(b *testing.B, ts ...*TCP) {
	var s TCPStats
	for _, t := range ts {
		st := t.Stats()
		s.FramesSent += st.FramesSent
		s.Writes += st.Writes
		s.FramesRead += st.FramesRead
		s.Reads += st.Reads
	}
	b.ReportMetric(float64(s.FramesSent)/float64(max(s.Writes, 1)), "frames/write")
	b.ReportMetric(float64(s.Reads)/float64(max(s.FramesRead, 1)), "reads/frame")
}

// BenchmarkTCPSend is the burst shape: frames are sent back to back, so the
// writer finds many already queued.
func BenchmarkTCPSend(b *testing.B) {
	var n atomic.Int64
	t0, t1 := newTCPPair(b, func(int, wire.Message) {}, func(int, wire.Message) { n.Add(1) })
	msg := wire.Message{Kind: wire.KindDispatch, Entries: make([]wire.Entry, 8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t0.Send(1, msg); err != nil {
			b.Fatal(err)
		}
	}
	for n.Load() < int64(b.N) {
		time.Sleep(time.Microsecond)
	}
	b.StopTimer()
	reportBatching(b, t0, t1)
}

// BenchmarkTCPPingPong is the shape that does not queue: one small frame
// each way at a time, as a short traversal's messages go. Batching cannot
// help it; it must not cost it either.
func BenchmarkTCPPingPong(b *testing.B) {
	pong := make(chan struct{}, 1)
	var t1 *TCP
	t0, t1 := newTCPPair(b, func(int, wire.Message) { pong <- struct{}{} }, func(_ int, msg wire.Message) {
		if err := t1.Send(0, msg); err != nil {
			b.Error(err)
		}
	})
	msg := wire.Message{Kind: wire.KindDispatch, Entries: make([]wire.Entry, 8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t0.Send(1, msg); err != nil {
			b.Fatal(err)
		}
		<-pong
	}
	b.StopTimer()
	reportBatching(b, t0, t1)
}

// TestFramePoolCycleDoesNotAllocate: the pool's own *[]byte goes out through
// the outbox and comes back, so a send's frame costs no allocation once the
// pool is warm — not even the slice header a Put(&b) would box.
func TestFramePoolCycleDoesNotAllocate(t *testing.T) {
	msg := wire.Message{Kind: wire.KindHeartbeat}
	out := make(chan *[]byte, 1)
	cycle := func() {
		f := getFrame()
		*f = wire.Append(*f, &msg)
		out <- f
		putFrame(<-out)
	}
	cycle()
	// A collection may empty the pool mid-run; one refill is not a leak.
	if n := testing.AllocsPerRun(200, cycle); n >= 1 {
		t.Errorf("frame get/append/put cycle allocates %.2f objects, want 0", n)
	}
}
