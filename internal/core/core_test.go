package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/wire"
)

// allModes are the server-side + client-side engines under differential test.
var allModes = []Mode{
	ModeSync, ModeAsyncPlain, ModeGraphTrek, ModeClientSide,
	ModeAsyncCacheOnly, ModeAsyncSchedOnly,
}

// cluster is an in-process test cluster: n backend servers plus one client
// on a channel fabric, with a mirrored global graph for the oracle.
type cluster struct {
	fabric  *rpc.Fabric
	servers []*Server
	client  *Client
	part    partition.Partitioner
	stores  []gstore.Graph
	global  *gstore.MemStore
}

// checkNoOrphans fails t if a server dropped a plan-less message for a
// traversal it did not know: every such message must follow, on its link,
// one that carried the plan (DESIGN §8).
func (c *cluster) checkNoOrphans(t testing.TB) {
	t.Helper()
	for _, s := range c.servers {
		if n := s.Metrics().OrphanMsgs; n != 0 {
			t.Errorf("server %d dropped %d orphan messages", s.ID(), n)
		}
	}
}

func newCluster(t testing.TB, n int, tweak func(*Config)) *cluster {
	t.Helper()
	return newWrappedCluster(t, n, tweak, nil)
}

// newWrappedCluster is newCluster with each server's outgoing transport passed
// through wrap (nil: as is), for tests that observe what a server sends.
func newWrappedCluster(t testing.TB, n int, tweak func(*Config), wrap func(id int, tr rpc.Transport) rpc.Transport) *cluster {
	t.Helper()
	c := &cluster{
		part:   partition.NewHash(n),
		fabric: rpc.NewFabric(n + 1),
		global: gstore.NewMemStore(),
	}
	for i := 0; i < n; i++ {
		store := gstore.NewMemStore()
		c.stores = append(c.stores, store)
		cfg := Config{ID: i, Store: store, Part: c.part, TravelTimeout: 15 * time.Second}
		if tweak != nil {
			tweak(&cfg)
		}
		srv := NewServer(cfg)
		var tr rpc.Transport = c.fabric.Endpoint(i)
		if wrap != nil {
			tr = wrap(i, tr)
		}
		srv.Bind(tr)
		if err := c.fabric.Endpoint(i).Start(srv.Handle); err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, srv)
	}
	c.client = NewClient(c.part)
	c.client.Bind(c.fabric.Endpoint(n))
	if err := c.fabric.Endpoint(n).Start(c.client.Handle); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range c.servers {
			s.Close()
		}
		c.fabric.Close()
	})
	return c
}

// newChaosCluster is newCluster with every backend's transport wrapped in a
// seeded fault injector; the returned chaos[i] controls server i's network
// view (drops, delays, duplication, crash-stop). The client endpoint stays
// fault-free so submissions and result collection are themselves reliable —
// faults under test are the server-to-server ones.
func newChaosCluster(t testing.TB, n int, chaosFor func(id int) rpc.ChaosConfig, tweak func(*Config)) (*cluster, []*rpc.Chaos) {
	t.Helper()
	c := &cluster{
		part:   partition.NewHash(n),
		fabric: rpc.NewFabric(n + 1),
		global: gstore.NewMemStore(),
	}
	chaos := make([]*rpc.Chaos, n)
	for i := 0; i < n; i++ {
		store := gstore.NewMemStore()
		c.stores = append(c.stores, store)
		cfg := Config{ID: i, Store: store, Part: c.part, TravelTimeout: 15 * time.Second}
		if tweak != nil {
			tweak(&cfg)
		}
		srv := NewServer(cfg)
		var cc rpc.ChaosConfig
		if chaosFor != nil {
			cc = chaosFor(i)
		}
		ch := rpc.NewChaos(c.fabric.Endpoint(i), cc)
		chaos[i] = ch
		srv.Bind(ch)
		if err := c.fabric.Endpoint(i).Start(ch.WrapHandler(srv.Handle)); err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, srv)
	}
	c.client = NewClient(c.part)
	c.client.Bind(c.fabric.Endpoint(n))
	if err := c.fabric.Endpoint(n).Start(c.client.Handle); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range c.servers {
			s.Close()
		}
		for _, ch := range chaos {
			ch.Close()
		}
		c.fabric.Close()
	})
	return c, chaos
}

func (c *cluster) addVertex(t testing.TB, v model.Vertex) {
	t.Helper()
	owner := c.part.Owner(v.ID)
	if err := c.stores[owner].PutVertex(v); err != nil {
		t.Fatal(err)
	}
	if err := c.global.PutVertex(v); err != nil {
		t.Fatal(err)
	}
}

func (c *cluster) addEdge(t testing.TB, e model.Edge) {
	t.Helper()
	owner := c.part.Owner(e.Src)
	if err := c.stores[owner].PutEdge(e); err != nil {
		t.Fatal(err)
	}
	if err := c.global.PutEdge(e); err != nil {
		t.Fatal(err)
	}
}

// loadAuditGraph installs the Fig 1-style metadata graph used across tests.
func loadAuditGraph(t testing.TB, c *cluster) {
	verts := []model.Vertex{
		{ID: 1, Label: "User", Props: property.Map{"name": property.String("sam")}},
		{ID: 2, Label: "User", Props: property.Map{"name": property.String("john")}},
		{ID: 10, Label: "Execution", Props: property.Map{"model": property.String("A")}},
		{ID: 11, Label: "Execution", Props: property.Map{"model": property.String("B")}},
		{ID: 12, Label: "Execution", Props: property.Map{"model": property.String("A")}},
		{ID: 20, Label: "File", Props: property.Map{"type": property.String("text")}},
		{ID: 21, Label: "File", Props: property.Map{"type": property.String("bin")}},
		{ID: 22, Label: "File", Props: property.Map{"type": property.String("text")}},
	}
	edges := []model.Edge{
		{Src: 1, Dst: 10, Label: "run", Props: property.Map{"ts": property.Int(5)}},
		{Src: 1, Dst: 11, Label: "run", Props: property.Map{"ts": property.Int(50)}},
		{Src: 2, Dst: 12, Label: "run", Props: property.Map{"ts": property.Int(5)}},
		{Src: 10, Dst: 20, Label: "read"},
		{Src: 11, Dst: 21, Label: "read"},
		{Src: 10, Dst: 22, Label: "write"},
	}
	for _, v := range verts {
		c.addVertex(t, v)
	}
	for _, e := range edges {
		c.addEdge(t, e)
	}
}

// runAllModes submits the plan under every engine and checks each against
// the reference oracle.
func (c *cluster) runAllModes(t *testing.T, plan *query.Plan) {
	t.Helper()
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: -1, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !sameIDs(got, want.Results) {
			t.Errorf("%v: results = %v, want %v", mode, got, want.Results)
		}
	}
}

func sameIDs(a, b []model.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustPlan(t testing.TB, tr *query.Travel) *query.Plan {
	t.Helper()
	p, err := tr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAuditQueryAllModes(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1).
		E("run").Ea("ts", property.RANGE, 0, 10).
		E("read").Va("type", property.EQ, "text")))
}

func TestProvenanceRtnAllModes(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V().
		Va(query.LabelKey, property.EQ, "Execution").Va("model", property.EQ, "A").Rtn().
		E("read").Va("type", property.EQ, "text")))
}

func TestLabelSeededAllModes(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run")))
}

func TestMultiLevelRtnAllModes(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1, 2).Rtn().E("run").Rtn().E("read").Rtn()))
}

func TestEmptyResultAllModes(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1).E("run").E("read").Va("type", property.EQ, "nothing")))
}

func TestMissingSeedAllModes(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(999).E("run")))
}

func TestDanglingEdgeAllModes(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.addVertex(t, model.Vertex{ID: 1, Label: "User"})
	c.addEdge(t, model.Edge{Src: 1, Dst: 404, Label: "run"}) // 404 never stored
	c.runAllModes(t, mustPlan(t, query.V(1).E("run")))
}

func TestCyclicRevisitAllModes(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.addVertex(t, model.Vertex{ID: 1, Label: "N"})
	c.addVertex(t, model.Vertex{ID: 2, Label: "N"})
	c.addEdge(t, model.Edge{Src: 1, Dst: 2, Label: "next"})
	c.addEdge(t, model.Edge{Src: 2, Dst: 1, Label: "next"})
	c.runAllModes(t, mustPlan(t, query.V(1).E("next").E("next").E("next")))
}

func TestSingleServerCluster(t *testing.T) {
	c := newCluster(t, 1, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1).E("run").E("read")))
}

// randomGraph builds a random power-law-ish graph mirrored into the
// cluster and the oracle store.
func randomGraph(t testing.TB, c *cluster, r *rand.Rand, nVerts, nEdges int) {
	labels := []string{"User", "Execution", "File"}
	for i := 0; i < nVerts; i++ {
		c.addVertex(t, model.Vertex{
			ID:    model.VertexID(i),
			Label: labels[r.Intn(len(labels))],
			Props: property.Map{"p": property.Int(int64(r.Intn(10)))},
		})
	}
	elabels := []string{"run", "read", "write"}
	for i := 0; i < nEdges; i++ {
		// Square the source draw to skew out-degree.
		src := r.Intn(nVerts) * r.Intn(nVerts) / nVerts
		c.addEdge(t, model.Edge{
			Src:   model.VertexID(src),
			Dst:   model.VertexID(r.Intn(nVerts)),
			Label: elabels[r.Intn(len(elabels))],
			Props: property.Map{"w": property.Int(int64(r.Intn(10)))},
		})
	}
}

// TestRandomizedDifferential cross-checks every engine against the oracle
// on randomized graphs and randomized plans — the core correctness test.
func TestRandomizedDifferential(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			c := newCluster(t, 2+r.Intn(5), nil)
			randomGraph(t, c, r, 60, 300)
			elabels := []string{"run", "read", "write"}
			for q := 0; q < 4; q++ {
				// Random plan: random seeds, 1-4 hops, random filters and
				// rtn placement.
				var tr *query.Travel
				switch r.Intn(3) {
				case 0:
					ids := make([]model.VertexID, 1+r.Intn(4))
					for i := range ids {
						ids[i] = model.VertexID(r.Intn(60))
					}
					tr = query.V(ids...)
				case 1:
					tr = query.VLabel([]string{"User", "Execution", "File"}[r.Intn(3)])
				default:
					tr = query.V().Va("p", property.RANGE, 0, 5+r.Intn(5))
				}
				rtnPlaced := false
				hops := 1 + r.Intn(4)
				if r.Intn(3) == 0 {
					tr = tr.Rtn()
					rtnPlaced = true
				}
				for h := 0; h < hops; h++ {
					tr = tr.E(elabels[r.Intn(len(elabels))])
					if r.Intn(4) == 0 {
						tr = tr.Ea("w", property.RANGE, 0, 2+r.Intn(8))
					}
					if r.Intn(4) == 0 {
						tr = tr.Va("p", property.RANGE, 0, 2+r.Intn(8))
					}
					if r.Intn(4) == 0 {
						tr = tr.Rtn()
						rtnPlaced = true
					}
				}
				_ = rtnPlaced
				c.runAllModes(t, mustPlan(t, tr))
			}
			c.checkNoOrphans(t)
		})
	}
}

func TestConcurrentTraversals(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	plans := []*query.Plan{
		mustPlan(t, query.V(1).E("run")),
		mustPlan(t, query.V(1).E("run").E("read")),
		mustPlan(t, query.VLabel("Execution").E("read")),
		mustPlan(t, query.V(2).E("run")),
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan := plans[i%len(plans)]
			mode := allModes[i%len(allModes)]
			want, err := query.Reference(c.global, plan)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: -1, Timeout: 20 * time.Second})
			if err != nil {
				t.Errorf("traversal %d (%v): %v", i, mode, err)
				return
			}
			if !sameIDs(got, want.Results) {
				t.Errorf("traversal %d (%v): got %v want %v", i, mode, got, want.Results)
			}
		}(i)
	}
	wg.Wait()
}

func TestMetricsAccountingIdentity(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.V(1, 2).E("run").E("read"))
	if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek}); err != nil {
		t.Fatal(err)
	}
	total := Metrics{}
	for _, s := range c.servers {
		snap := s.Metrics()
		if !snap.Consistent() {
			t.Errorf("server %d: inconsistent accounting %+v", s.ID(), snap)
		}
		total = total.Add(snap)
	}
	if total.Received == 0 || total.RealIO == 0 {
		t.Errorf("no work recorded: %+v", total)
	}
}

// TestMetricsLeavesProcessRowsZero: a server's snapshot does not read the Go
// runtime (a stop-the-world ReadMemStats); /metrics reads it once per scrape.
func TestMetricsLeavesProcessRowsZero(t *testing.T) {
	c := newCluster(t, 2, nil)
	runtime.GC()
	for _, s := range c.servers {
		m := s.Metrics()
		for _, f := range metrics.Fields() {
			if f.Process && f.Get(m) != 0 {
				t.Errorf("server %d: process row %s = %d, want 0", s.ID(), f.Name, f.Get(m))
			}
		}
	}
}

func TestAsyncPlainDoesMoreIO(t *testing.T) {
	// A diamond fan: seed -> m middles -> one hot vertex. Plain async
	// visits the hot vertex m times; GraphTrek's cache dedups to 1.
	const m = 8
	build := func(c *cluster) {
		c.addVertex(t, model.Vertex{ID: 1, Label: "S"})
		c.addVertex(t, model.Vertex{ID: 100, Label: "H"})
		c.addVertex(t, model.Vertex{ID: 200, Label: "T"})
		c.addEdge(t, model.Edge{Src: 100, Dst: 200, Label: "next"})
		for i := 0; i < m; i++ {
			mid := model.VertexID(10 + i)
			c.addVertex(t, model.Vertex{ID: mid, Label: "M"})
			c.addEdge(t, model.Edge{Src: 1, Dst: mid, Label: "next"})
			c.addEdge(t, model.Edge{Src: mid, Dst: 100, Label: "next"})
		}
	}
	plan := func(t *testing.T) *query.Plan {
		return mustPlan(t, query.V(1).E("next").E("next").E("next"))
	}
	run := func(t *testing.T, mode Mode) Metrics {
		c := newCluster(t, 3, nil)
		build(c)
		got, err := c.client.SubmitPlan(plan(t), SubmitOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, []model.VertexID{200}) {
			t.Fatalf("%v results = %v", mode, got)
		}
		total := Metrics{}
		for _, s := range c.servers {
			total = total.Add(s.Metrics())
		}
		return total
	}
	plain := run(t, ModeAsyncPlain)
	gt := run(t, ModeGraphTrek)
	if plain.RealIO <= gt.RealIO {
		t.Errorf("plain async RealIO %d should exceed GraphTrek %d", plain.RealIO, gt.RealIO)
	}
	if gt.Redundant == 0 {
		t.Errorf("GraphTrek should have counted redundant visits, got %+v", gt)
	}
}

func TestWatchdogDetectsSilentFailure(t *testing.T) {
	// Server 1 silently drops every inbound message: executions registered
	// as created there never terminate, and with the heartbeat detector
	// off (it cannot see a live-but-deaf server anyway — server 1 still
	// beacons) the coordinator watchdog must fail the traversal rather
	// than hang (§IV-C).
	c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
		if id == 1 {
			return rpc.ChaosConfig{DropIn: func(int, wire.Message) bool { return true }}
		}
		return rpc.ChaosConfig{}
	}, func(cfg *Config) {
		cfg.TravelTimeout = 500 * time.Millisecond
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
	start := time.Now()
	_, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 10 * time.Second})
	if err == nil {
		t.Fatal("expected watchdog failure, got success")
	}
	if !strings.Contains(err.Error(), "timeout") && !strings.Contains(err.Error(), "failure") {
		t.Errorf("unexpected error text: %v", err)
	}
	if time.Since(start) > 8*time.Second {
		t.Errorf("watchdog took %v, should trip near the 500ms timeout", time.Since(start))
	}
}

func TestProgressReporting(t *testing.T) {
	// Slow the disk so the traversal is observable in flight.
	c := newCluster(t, 2, func(cfg *Config) {
		cfg.Workers = 1
	})
	loadAuditGraph(t, c)
	// Pre-register: run a traversal and poll Progress concurrently.
	plan := mustPlan(t, query.VLabel("File").E("read")) // no-op-ish
	done := make(chan struct{})
	var sawProgress bool
	go func() {
		defer close(done)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, s := range c.servers {
				s.mu.Lock()
				n := len(s.ledgers)
				s.mu.Unlock()
				if n > 0 {
					sawProgress = true
					return
				}
			}
		}
	}()
	if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek}); err != nil {
		t.Fatal(err)
	}
	<-done
	_ = sawProgress // ledger presence is timing-dependent; Progress API exercised below
	// Progress on an unknown traversal reports false.
	if _, ok := c.servers[0].Progress(12345); ok {
		t.Error("Progress on unknown travel should be false")
	}
}

func TestMalformedPlanRejected(t *testing.T) {
	c := newCluster(t, 2, nil)
	// Handcraft a bad plan payload straight to a server.
	p := &pendingTravel{done: make(chan struct{})}
	c.client.mu.Lock()
	c.client.pending[999] = p
	c.client.mu.Unlock()
	err := c.client.tr.Send(0, wire.Message{
		Kind: wire.KindStartTravel, TravelID: 999,
		Mode: uint8(ModeGraphTrek), Coord: int32(c.client.tr.Self()),
		Plan: []byte{0xde, 0xad},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
		if p.err == nil {
			t.Error("expected plan decode error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no error reply for malformed plan")
	}
}

// TestPeerPlanNamingNoServerIgnored: a message from a peer that carries a
// plan registers its traversal, so a coordinator id outside the servers is
// malformed input and must be dropped, not indexed.
func TestPeerPlanNamingNoServerIgnored(t *testing.T) {
	c := newCluster(t, 2, nil)
	loadAuditGraph(t, c)
	coords := []int32{-1, 2, 99}
	for _, coord := range coords {
		err := c.fabric.Endpoint(1).Send(0, wire.Message{
			Kind: wire.KindDispatch, TravelID: 1000 + uint64(coord+1), ExecID: 1,
			Entries: []wire.Entry{{Vertex: 2, AncStep: -1, Dest: -1}},
			Mode:    uint8(ModeGraphTrek), Coord: coord, Plan: mustPlan(t, query.V(2)).Encode(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A well-formed traversal behind them is served: the handler lived.
	// (Its own state may outlive the reply until its release arrives, so
	// the malformed ids are the ones checked.)
	c.runAllModes(t, mustPlan(t, query.V(1).E("run")))
	s := c.servers[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, coord := range coords {
		if s.travels[1000+uint64(coord+1)] != nil {
			t.Errorf("server 0 registered the traversal of a plan naming coordinator %d", coord)
		}
	}
}

// TestLateMessagesAfterTravelDone: once a server released a traversal, a
// late message for it — one carrying the plan or a plan-less one — neither
// registers the traversal again nor counts as an orphan. A plan-less
// message for a traversal the server never knew is one.
func TestLateMessagesAfterTravelDone(t *testing.T) {
	c := newCluster(t, 2, nil)
	loadAuditGraph(t, c)
	s := c.servers[1]
	const travel, unknown = 1234, 1235
	dispatch := func(travel uint64, exec uint64, withPlan bool) wire.Message {
		m := wire.Message{Kind: wire.KindDispatch, TravelID: travel, Step: 0, ExecID: exec,
			Entries: []wire.Entry{{Vertex: 2, AncStep: -1, Dest: -1}}}
		if withPlan {
			m.Plan, m.Coord, m.Mode = mustPlan(t, query.V(2).E("run")).Encode(), 0, uint8(ModeGraphTrek)
		}
		return m
	}
	s.Handle(0, dispatch(travel, 1, true))
	s.Handle(0, wire.Message{Kind: wire.KindTravelDone, TravelID: travel})
	s.Handle(0, dispatch(travel, 2, true))
	s.Handle(0, dispatch(travel, 3, false))
	s.mu.Lock()
	_, registered := s.travels[travel]
	s.mu.Unlock()
	if registered {
		t.Error("a late message registered a finished traversal again")
	}
	if n := s.Metrics().OrphanMsgs; n != 0 {
		t.Errorf("late messages counted as %d orphans, want 0", n)
	}
	s.Handle(0, dispatch(unknown, 4, false))
	if n := s.Metrics().OrphanMsgs; n != 1 {
		t.Errorf("a plan-less message of an unknown traversal counted %d orphans, want 1", n)
	}
}

func TestSubmitValidatesBuilderErrors(t *testing.T) {
	c := newCluster(t, 2, nil)
	if _, err := c.client.Submit(query.V(1).E(""), SubmitOptions{}); err == nil {
		t.Error("builder error should surface at Submit")
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeSync: "Sync-GT", ModeAsyncPlain: "Async-GT", ModeGraphTrek: "GraphTrek",
		ModeClientSide: "Client-GT", ModeAsyncCacheOnly: "Async+Cache",
		ModeAsyncSchedOnly: "Async+Sched", Mode(99): "Unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestTinyCacheStillCorrect forces heavy traversal-affiliate cache
// eviction (capacity 8) and checks results are unaffected: the cache is a
// performance structure, never a correctness dependency. A User-seeded
// 3-hop plan over 120 vertices admits far more than 8 keys on every
// server, so the cache must have evicted by the end.
func TestTinyCacheStillCorrect(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.CacheCap = 8 })
	r := rand.New(rand.NewSource(11))
	randomGraph(t, c, r, 120, 600)
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run").E("read").E("write")))
	for q := 0; q < 3; q++ {
		tr := query.V(model.VertexID(r.Intn(120))).E("run").E("read").E("write")
		c.runAllModes(t, mustPlan(t, tr))
	}
	var evicted int64
	for _, s := range c.servers {
		evicted += s.Metrics().CacheEvictions
	}
	if evicted == 0 {
		t.Errorf("cache_evictions_total is 0 on every server: the cache never filled")
	}
}

// TestSingleWorkerPerServer pins Workers to 1: scheduling merge windows
// shrink but every engine must stay correct and deadlock-free.
func TestSingleWorkerPerServer(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.Workers = 1 })
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run").E("read")))
}

// TestManyWorkersPerServer goes the other way: a wide worker pool racing
// on the same queue and outboxes.
func TestManyWorkersPerServer(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) { cfg.Workers = 16 })
	r := rand.New(rand.NewSource(13))
	randomGraph(t, c, r, 60, 300)
	c.runAllModes(t, mustPlan(t, query.V(0, 1, 2).E("run").E("read")))
}
