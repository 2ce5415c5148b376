package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/wire"
)

// newTCPCluster assembles a real-TCP cluster on loopback: n backend
// servers plus one client, each with its own transport — the deployment
// cmd/graphtrek-server runs, exercised in-process.
func newTCPCluster(t *testing.T, n int) (*cluster, func()) {
	t.Helper()
	c := &cluster{part: partition.NewHash(n), global: gstore.NewMemStore()}
	addrs := make([]string, n+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	transports := make([]*rpc.TCP, 0, n+1)
	// Bind sequentially, patching the address list as ports resolve.
	for i := 0; i < n; i++ {
		store := gstore.NewMemStore()
		c.stores = append(c.stores, store)
		srv := NewServer(Config{ID: i, Store: store, Part: c.part, TravelTimeout: 15 * time.Second})
		tr, err := rpc.NewTCP(i, addrs, srv.Handle)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = tr.Addr()
		srv.Bind(tr)
		transports = append(transports, tr)
		c.servers = append(c.servers, srv)
	}
	c.client = NewClient(c.part)
	ctr, err := rpc.NewTCP(n, addrs, c.client.Handle)
	if err != nil {
		t.Fatal(err)
	}
	addrs[n] = ctr.Addr()
	c.client.Bind(ctr)
	transports = append(transports, ctr)
	// Every node needs the final address list; TCP transports dial lazily,
	// so updating the slice before first use is sufficient. The slice is
	// shared per-transport; patch each one.
	for _, tr := range transports {
		tr.PatchAddrs(addrs)
	}
	cleanup := func() {
		for _, s := range c.servers {
			s.Close()
		}
		for _, tr := range transports {
			tr.Close()
		}
	}
	return c, cleanup
}

func TestTCPClusterEndToEnd(t *testing.T) {
	c, cleanup := newTCPCluster(t, 3)
	defer cleanup()
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.V(1).
		E("run").Ea("ts", property.RANGE, 0, 10).
		E("read"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSync, ModeAsyncPlain, ModeGraphTrek, ModeClientSide} {
		got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: -1, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("%v over TCP: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want.Results) {
			t.Errorf("%v over TCP: got %v want %v", mode, got, want.Results)
		}
	}
}

func TestTCPClusterRtnQuery(t *testing.T) {
	c, cleanup := newTCPCluster(t, 2)
	defer cleanup()
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("Execution").Rtn().E("read").Va("type", property.EQ, "text"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Results) {
		t.Errorf("got %v want %v", got, want.Results)
	}
}

func TestRetryRoutesAroundDeadCoordinator(t *testing.T) {
	// Server 0 drops everything (a crashed coordinator). With retries and
	// hash-picked coordinators, the traversal must eventually land on a
	// live coordinator and succeed — the §IV-C restart policy.
	c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
		if id == 0 {
			return rpc.ChaosConfig{DropIn: func(int, wire.Message) bool { return true }}
		}
		return rpc.ChaosConfig{}
	}, func(cfg *Config) {
		cfg.TravelTimeout = 300 * time.Millisecond
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.V(1).E("run"))
	want, _ := query.Reference(c.global, plan)

	// Force first attempt onto the dead server by trying until a travel id
	// hashes there; with Coordinator: -1 and several retries the client
	// will rotate coordinators.
	got, err := c.client.SubmitPlan(plan, SubmitOptions{
		Mode: ModeGraphTrek, Coordinator: -1,
		Timeout: 5 * time.Second, Retries: 5,
	})
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if !sameIDs(got, want.Results) {
		t.Errorf("got %v want %v", got, want.Results)
	}
}

func TestRetryRecoversFromTransientDrop(t *testing.T) {
	// Server 1 drops messages for the first traversal it sees, then
	// behaves. One retry must recover.
	var dropped atomic.Uint64
	c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
		if id == 1 {
			return rpc.ChaosConfig{DropIn: func(_ int, msg wire.Message) bool {
				if msg.TravelID == 0 {
					return false
				}
				first := dropped.CompareAndSwap(0, msg.TravelID)
				return first || dropped.Load() == msg.TravelID
			}}
		}
		return rpc.ChaosConfig{}
	}, func(cfg *Config) {
		cfg.TravelTimeout = 300 * time.Millisecond
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run"))
	want, _ := query.Reference(c.global, plan)
	got, err := c.client.SubmitPlan(plan, SubmitOptions{
		Mode: ModeSync, Coordinator: 0,
		Timeout: 5 * time.Second, Retries: 2,
	})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if !sameIDs(got, want.Results) {
		t.Errorf("got %v want %v", got, want.Results)
	}
}

func TestNoRetryFailsFast(t *testing.T) {
	c, _ := newChaosCluster(t, 2, func(id int) rpc.ChaosConfig {
		if id == 1 {
			return rpc.ChaosConfig{DropIn: func(int, wire.Message) bool { return true }}
		}
		return rpc.ChaosConfig{}
	}, func(cfg *Config) {
		cfg.TravelTimeout = 200 * time.Millisecond
	})
	loadAuditGraph(t, c)
	_, err := c.client.SubmitPlan(mustPlan(t, query.VLabel("User").E("run")),
		SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 5 * time.Second})
	if err == nil {
		t.Fatal("expected failure without retries")
	}
	if !strings.Contains(err.Error(), "timeout") && !strings.Contains(err.Error(), "failure") {
		t.Errorf("error = %v", err)
	}
}

// TestTransportHooksFeedServerMetrics wires a server's ObserveReconnect and
// ObserveSendFailure into its TCP transport, as graphtrek-server and the
// benchmark do, then drops the peer's connection: frames refused while the
// peer is down must show in MsgsFailed, and the re-dial once it is back in
// Reconnects.
func TestTransportHooksFeedServerMetrics(t *testing.T) {
	srv := NewServer(Config{ID: 0, Store: gstore.NewMemStore(), Part: partition.NewHash(1)})
	defer srv.Close()
	tr, err := rpc.NewTCPWithOptions(0, []string{"127.0.0.1:0", "127.0.0.1:0"}, srv.Handle, rpc.TCPOptions{
		OutboxSize:      2,
		SendTimeout:     -1, // refuse at once on a full outbox
		DialBackoffBase: 5 * time.Millisecond,
		DialBackoffMax:  50 * time.Millisecond,
		OnReconnect:     srv.ObserveReconnect,
		OnSendFailure:   srv.ObserveSendFailure,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	srv.Bind(tr)

	var got atomic.Int64
	peer := func(addr string) *rpc.TCP {
		p, err := rpc.NewTCP(1, []string{tr.Addr(), addr}, func(int, wire.Message) { got.Add(1) })
		if err != nil {
			t.Fatalf("peer on %s: %v", addr, err)
		}
		return p
	}
	// sendUntil sends until cond holds; a refused Send is what the test
	// waits for, not a failure of it.
	sendUntil := func(what string, cond func() bool) {
		t.Helper()
		pollUntil(t, 10*time.Second, what, func() bool {
			tr.Send(1, wire.Message{Kind: wire.KindResult, TravelID: 1})
			return cond()
		})
	}

	p1 := peer("127.0.0.1:0")
	addr := p1.Addr()
	if err := tr.PatchAddrs([]string{tr.Addr(), addr}); err != nil {
		t.Fatal(err)
	}
	sendUntil("first delivery", func() bool { return got.Load() > 0 })
	if n := srv.Metrics().Reconnects; n != 0 {
		t.Fatalf("Reconnects = %d after the first dial, want 0", n)
	}

	p1.Close()
	sendUntil("a refused frame", func() bool { return srv.Metrics().MsgsFailed >= 1 })

	defer peer(addr).Close()
	before := got.Load()
	sendUntil("delivery after the restart", func() bool { return got.Load() > before })
	if m := srv.Metrics(); m.Reconnects < 1 {
		t.Errorf("Reconnects = %d after the peer came back, want >= 1 (transport %+v)", m.Reconnects, tr.Stats())
	}
}
