package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
	"graphtrek/internal/wire"
)

// TestRetryableClassification pins the single retry policy: terminal errors
// (malformed plans, explicit cancellation, local misconfiguration) never
// retry; transient cluster state (backpressure, suspected peers, watchdog
// timeouts, epoch fences, moved partitions, transport failures) always does.
func TestStressRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plan compile", errors.New("query: unknown edge label op"), false},
		{"client cancel", errors.New("core: traversal cancelled by client"), false},
		{"unbound client", errors.New("core: client not bound to a transport"), false},
		{"client-side async", errors.New("core: client-side traversal cannot run asynchronously"), false},
		{"replication off", errors.New("core: replication is not enabled on this cluster"), false},
		{"malformed write batch", errors.New("query: gstore: truncated mutation"), false},
		{"admission reject", errors.New("core: server 2 rejected traversal work, retry later: sched: queue full"), true},
		{"suspected peer", errors.New(peerDeadError(1)), true},
		{"client watchdog", errors.New("core: traversal 9 timed out after 5s at the client"), true},
		{"epoch fence", ErrWrongEpoch, true},
		{"partition moved", fmt.Errorf("%v: partition 3 is primaried by server 1", ErrPartitionMoved), true},
		{"orphaned partition", errors.New("core: partition 0 primary server 2 suspected dead; awaiting failover"), true},
		{"quorum timeout", errors.New("core: server 1 write quorum timed out, retry later"), true},
		{"transport closed", rpc.ErrClosed, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("%s: Retryable(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// newReplCluster builds an n-server cluster with rf-way replication. Every
// server and the client gets its own route view seeded from the same boot
// table — exactly like separate processes — so these tests exercise real
// gossip convergence rather than shared-pointer shortcuts. Each server's
// transport is wrapped in a fault injector for crash-stop control; the
// client's endpoint stays fault-free.
func newReplCluster(t testing.TB, n, rf int, tweak func(*Config)) (*cluster, []*rpc.Chaos, []*route.View) {
	t.Helper()
	c := &cluster{
		fabric: rpc.NewFabric(n + 1),
		global: gstore.NewMemStore(),
	}
	views := make([]*route.View, n+1)
	for i := range views {
		views[i] = route.NewView(route.Identity(n, rf))
	}
	c.part = views[n]
	chaos := make([]*rpc.Chaos, n)
	for i := 0; i < n; i++ {
		cfg := Config{ID: i, Store: gstore.NewMemStore(), Part: views[i], Route: views[i], ReplicationFactor: rf, TravelTimeout: 15 * time.Second}
		if tweak != nil {
			tweak(&cfg)
		}
		c.stores = append(c.stores, cfg.Store)
		srv := NewServer(cfg)
		ch := rpc.NewChaos(c.fabric.Endpoint(i), rpc.ChaosConfig{})
		chaos[i] = ch
		srv.Bind(ch)
		if err := c.fabric.Endpoint(i).Start(ch.WrapHandler(srv.Handle)); err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, srv)
	}
	c.client = NewClient(views[n])
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
	return c, chaos, views
}

var auditVertexIDs = []model.VertexID{1, 2, 10, 11, 12, 20, 21, 22}

// auditMutations is loadAuditGraph's graph expressed as a replicated write
// batch (vertices before their edges).
func auditMutations() []gstore.Mutation {
	var muts []gstore.Mutation
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
		muts = append(muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: v})
	}
	for _, e := range edges {
		muts = append(muts, gstore.Mutation{Op: gstore.OpPutEdge, Edge: e})
	}
	return muts
}

// writeAuditGraph loads the audit graph through the quorum write path and
// mirrors it into the oracle store.
func writeAuditGraph(t testing.TB, c *cluster) {
	t.Helper()
	muts := auditMutations()
	if err := c.client.Write(muts, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if err := m.Apply(c.global); err != nil {
			t.Fatal(err)
		}
	}
}

func pollUntil(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// findFreeID returns a vertex id >= from, outside the audit graph, that
// hashes into partition p.
func findFreeID(view *route.View, p int, from model.VertexID) model.VertexID {
	for id := from; ; id++ {
		if view.Partition(id) == p {
			return id
		}
	}
}

// TestReplQuorumWriteAllModes loads the graph through quorum writes and
// checks (a) every acked vertex is durable on every replica of its
// partition, and (b) all six traversal engines return the exact reference
// results on the replicated cluster — the ownership filter must keep
// follower copies from double-seeding.
func TestStressReplQuorumWriteAllModes(t *testing.T) {
	c, _, views := newReplCluster(t, 3, 2, nil)
	writeAuditGraph(t, c)
	view := views[len(views)-1]
	for _, id := range auditVertexIDs {
		p := view.Partition(id)
		for _, r := range view.Assignment(p).Replicas() {
			if _, ok, err := c.stores[r].GetVertex(id); err != nil || !ok {
				t.Fatalf("vertex %d missing on replica %d of partition %d (ok=%v err=%v)", id, r, p, ok, err)
			}
		}
	}
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run").E("read")))
	c.runAllModes(t, mustPlan(t, query.VLabel("Execution").Rtn().E("read").Va("type", property.EQ, "text")))
}

// TestReplFailoverPromotionAndEpochFencing is the chaos end-to-end for the
// replication tentpole: a primary is crash-stopped mid-traversal, the
// surviving follower is promoted within ~2 heartbeat intervals of the
// suspicion, no acked write is lost, a retried traversal returns results
// byte-identical to the pre-crash oracle, quorum writes resume against the
// new primary — and when the deposed primary comes back, its stale-epoch
// replication is fenced and it adopts the new route table.
func TestStressReplFailoverPromotionAndEpochFencing(t *testing.T) {
	const (
		n            = 3
		hb           = 100 * time.Millisecond
		suspectAfter = 3 * hb
	)
	c, chaos, views := newReplCluster(t, n, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = hb
		cfg.SuspectAfter = suspectAfter
		cfg.Disk = simio.NewDisk(10*time.Millisecond, 2)
		cfg.Workers = 2
	})
	writeAuditGraph(t, c)
	clientView := views[n]
	// Under the identity boot table partition p is primaried by server p
	// with server (p+1)%n as its follower. Anchor the scenario on the
	// partition holding vertex 1 so the victim provably owns query data.
	p0 := clientView.Partition(1)
	victim := p0
	promotee := (p0 + 1) % n
	coord := (p0 + 2) % n

	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: coord, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, want.Results) {
		t.Fatalf("pre-crash results %v, want %v", got, want.Results)
	}

	// Kill the primary mid-traversal (the simulated disk latency keeps the
	// traversal in flight well past the crash).
	h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	chaos[victim].Crash()
	start := time.Now()
	if res, werr := h.Wait(20 * time.Second); werr != nil {
		if !Retryable(werr) {
			t.Fatalf("mid-crash traversal failure must be retryable, got: %v", werr)
		}
	} else if !sameIDs(res, want.Results) {
		t.Errorf("traversal finished across the crash with %v, want %v", res, want.Results)
	}

	// Promotion within ~2 heartbeat intervals of the suspicion firing (the
	// detector scans at hb/2 granularity).
	pollUntil(t, 10*time.Second, "follower promotion", func() bool {
		return c.servers[promotee].Metrics().Promotions >= 1
	})
	if elapsed, budget := time.Since(start), suspectAfter+2*hb+hb/2; elapsed > budget {
		t.Errorf("promotion took %v after the crash, want <= %v", elapsed, budget)
	}

	// The new assignment must gossip to the other server and the client.
	pollUntil(t, 5*time.Second, "route convergence", func() bool {
		return views[coord].Assignment(p0).Primary == int32(promotee) &&
			clientView.Assignment(p0).Primary == int32(promotee)
	})
	if a := clientView.Assignment(p0); a.Epoch < 2 {
		t.Errorf("partition %d epoch = %d after failover, want >= 2", p0, a.Epoch)
	}

	// Zero lost acked writes: everything the quorum acknowledged for the
	// victim's partition is on the promoted primary.
	for _, id := range auditVertexIDs {
		if clientView.Partition(id) != p0 {
			continue
		}
		if _, ok, err := c.stores[promotee].GetVertex(id); err != nil || !ok {
			t.Errorf("acked vertex %d lost in failover (ok=%v err=%v)", id, ok, err)
		}
	}

	// Differential oracle: a retried traversal re-routes to the promoted
	// primary and returns exactly the pre-crash results. Right after the
	// promotion an attempt may still race the last view merge, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err = c.client.SubmitPlan(plan, SubmitOptions{
			Mode: ModeGraphTrek, Coordinator: coord, Timeout: 5 * time.Second, Retries: 2,
		})
		if err == nil {
			break
		}
		if !Retryable(err) {
			t.Fatalf("post-failover traversal failed terminally: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-failover traversal never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sameIDs(got, want.Results) {
		t.Errorf("post-failover results %v, want %v", got, want.Results)
	}

	// Quorum writes resume against the promoted primary.
	newID := findFreeID(clientView, p0, 1000)
	err = c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: newID, Label: "Marker"}},
	}, WriteOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if _, ok, _ := c.stores[promotee].GetVertex(newID); !ok {
		t.Errorf("post-failover write %d not on promoted primary %d", newID, promotee)
	}

	// Epoch fencing: the revived primary missed the gossip while dead and
	// still believes the old assignment. Its attempt to replicate a write
	// under the old epoch must be rejected by the follower, which hands back
	// the current table — demoting the straggler without any central
	// authority.
	before := c.servers[promotee].Metrics().EpochRejects
	chaos[victim].Revive()
	if prim := views[victim].Assignment(p0).Primary; prim != int32(victim) {
		t.Fatalf("victim's view unexpectedly updated while crashed: partition %d primary %d", p0, prim)
	}
	staleID := findFreeID(clientView, p0, newID+1)
	blob := gstore.EncodeBatch([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: staleID, Label: "Stale"}},
	})
	c.servers[victim].Handle(n, wire.Message{Kind: wire.KindWriteReq, ReqID: 1 << 40, Part: int32(p0), Blob: blob})
	pollUntil(t, 5*time.Second, "epoch fence on the new primary", func() bool {
		return c.servers[promotee].Metrics().EpochRejects > before
	})
	pollUntil(t, 5*time.Second, "stale primary demotion", func() bool {
		return views[victim].Assignment(p0).Primary == int32(promotee)
	})
	if _, ok, _ := c.stores[promotee].GetVertex(staleID); ok {
		t.Errorf("stale-epoch write %d leaked onto the promoted primary", staleID)
	}
}

// TestReplShardHandoff moves a partition replica online: a third server
// joins a partition it never held, receives the snapshot plus the live
// tail, is published as a follower under a fresh epoch, and from then on
// participates in the partition's quorum.
func TestStressReplShardHandoff(t *testing.T) {
	const n = 3
	c, _, views := newReplCluster(t, n, 2, nil)
	writeAuditGraph(t, c)
	clientView := views[n]
	p := clientView.Partition(1) // replicas {p, (p+1)%n} at boot
	primary := p
	joiner := (p + 2) % n

	if err := c.servers[joiner].JoinPartition(p); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "joiner published as follower", func() bool {
		return views[joiner].Assignment(p).HasReplica(int32(joiner)) &&
			clientView.Assignment(p).HasReplica(int32(joiner))
	})
	a := clientView.Assignment(p)
	if a.Epoch != 2 {
		t.Errorf("partition %d epoch = %d after handoff, want 2", p, a.Epoch)
	}
	if a.Primary != int32(primary) {
		t.Errorf("partition %d primary = %d after handoff, want %d (handoff must not move the primary)", p, a.Primary, primary)
	}
	if got := c.servers[primary].Metrics().HandoffBytes; got <= 0 {
		t.Errorf("HandoffBytes = %d on the streaming primary, want > 0", got)
	}

	// The joiner holds the partition's data: vertices and vertex 1's edges.
	for _, id := range auditVertexIDs {
		if clientView.Partition(id) != p {
			continue
		}
		if _, ok, err := c.stores[joiner].GetVertex(id); err != nil || !ok {
			t.Errorf("vertex %d missing on joiner %d after handoff (ok=%v err=%v)", id, joiner, ok, err)
		}
	}
	edges := 0
	if err := c.stores[joiner].ScanAllEdges(1, func(model.Edge) bool { edges++; return true }); err != nil {
		t.Fatal(err)
	}
	if edges != 2 {
		t.Errorf("joiner has %d out-edges for vertex 1, want 2", edges)
	}

	// A post-join quorum write reaches the new follower (the 2-of-3 quorum
	// may ack before the joiner applies, so poll).
	newID := findFreeID(clientView, p, 1000)
	err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: newID, Label: "Marker"}},
	}, WriteOptions{})
	if err != nil {
		t.Fatalf("post-join write: %v", err)
	}
	pollUntil(t, 5*time.Second, "post-join write on the joiner", func() bool {
		_, ok, _ := c.stores[joiner].GetVertex(newID)
		return ok
	})
}

// replAppliedSeq reads a server's applied replication sequence for one
// partition from its status document.
func replAppliedSeq(s *Server, p int) uint64 {
	for _, ps := range s.Status().Partitions {
		if ps.Part == p {
			return ps.AppliedSeq
		}
	}
	return 0
}

// TestReplConcurrentWriteOrdering drives one partition's primary with many
// concurrent same-vertex writes, bypassing the (serializing) in-process
// fabric by invoking Handle directly — exactly what the TCP transport does
// from different peer connections. The primary must apply batches in the
// same order it assigns their sequence numbers, or followers (which replay
// strictly in sequence order) end up with a different final value for the
// contended vertex than the primary.
func TestStressReplConcurrentWriteOrdering(t *testing.T) {
	const (
		n       = 2
		writers = 32
	)
	c, _, views := newReplCluster(t, n, 2, nil)
	const p = 0 // Identity(2,2): primary 0, follower 1
	vid := findFreeID(views[n], p, 1)

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob := gstore.EncodeBatch([]gstore.Mutation{{
				Op: gstore.OpPutVertex,
				Vertex: model.Vertex{ID: vid, Label: "Counter",
					Props: property.Map{"v": property.Int(int64(i))}},
			}})
			c.servers[p].Handle(n, wire.Message{
				Kind: wire.KindWriteReq, ReqID: uint64(1<<40) + uint64(i),
				Part: p, Blob: blob,
			})
		}(i)
	}
	wg.Wait()

	pollUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return replAppliedSeq(c.servers[1], p) >= writers
	})
	pv, ok, err := c.stores[0].GetVertex(vid)
	if err != nil || !ok {
		t.Fatalf("vertex %d missing on primary (ok=%v err=%v)", vid, ok, err)
	}
	fv, ok, err := c.stores[1].GetVertex(vid)
	if err != nil || !ok {
		t.Fatalf("vertex %d missing on follower (ok=%v err=%v)", vid, ok, err)
	}
	if pv.Props["v"] != fv.Props["v"] {
		t.Errorf("primary/follower diverged on contended vertex %d: primary v=%v, follower v=%v",
			vid, pv.Props["v"], fv.Props["v"])
	}
}

// TestReplEpochScopedSequences reproduces the lost-acked-write hazard of
// cross-epoch sequence comparison: a follower holding old-epoch records past
// the new primary's base must resync through a snapshot instead of acking
// new-epoch sequences it never stored. The scenario: server 2 applies a
// divergent epoch-1 append (seq 2) the eventual new primary never saw; an
// epoch-2 table promotes server 1; a client write then reuses seq 2 under
// epoch 2. Without epoch scoping server 2 treats it as a duplicate, acks
// without storing, and the quorum-acked vertex silently never lands on it.
func TestStressReplEpochScopedSequences(t *testing.T) {
	const n = 3
	c, _, views := newReplCluster(t, n, 3, nil)
	clientView := views[n]
	p := clientView.Partition(1) // Identity(3,3): primary p, followers p+1, p+2
	srv1 := (p + 1) % n
	srv2 := (p + 2) % n

	// Seed one quorum write so every replica sits at sequence 1.
	seedID := findFreeID(clientView, p, 1)
	if err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: seedID, Label: "Seed"}},
	}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "seed write on all replicas", func() bool {
		return replAppliedSeq(c.servers[srv1], p) == 1 && replAppliedSeq(c.servers[srv2], p) == 1
	})

	// Divergent old-epoch history: server 2 applies an epoch-1 append at
	// sequence 2 that server 1 (the eventual new primary) never received.
	divID := findFreeID(clientView, p, seedID+1)
	divBlob := gstore.EncodeBatch([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: divID, Label: "Divergent"}},
	})
	c.servers[srv2].Handle(p, wire.Message{
		Kind: wire.KindReplAppend, Part: int32(p), Epoch: 1, Seq: 2, Base: 0, Blob: divBlob,
	})
	pollUntil(t, 5*time.Second, "divergent append applied", func() bool {
		return replAppliedSeq(c.servers[srv2], p) == 2
	})

	// A lagging-follower promotion: epoch 2 names server 1 primary with
	// server 2 as the only follower, installed on both survivors and the
	// client (the deposed server p is left out, as after its crash).
	tbl := route.Identity(n, n)
	tbl.Parts[p] = route.Assignment{Epoch: 2, Primary: int32(srv1), Followers: []int32{int32(srv2)}}
	blob := tbl.Encode()
	c.servers[srv1].Handle(n, wire.Message{Kind: wire.KindRouteUpdate, Blob: blob})
	c.servers[srv2].Handle(n, wire.Message{Kind: wire.KindRouteUpdate, Blob: blob})
	clientView.Update(tbl)

	// The new primary assigns sequence 2 under epoch 2 — the sequence
	// server 2 already burned on divergent epoch-1 history.
	newID := findFreeID(clientView, p, divID+1)
	if err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: newID, Label: "Marker"}},
	}, WriteOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("post-promotion write: %v", err)
	}
	// The acked write must be durable on the quorum-counted follower. The
	// ack that satisfied the quorum is sent after the store holds the data
	// on both the resync (snapDone) and normal paths, so no poll is needed.
	if _, ok, _ := c.stores[srv2].GetVertex(newID); !ok {
		t.Fatalf("acked write %d missing on follower %d: old-epoch sequence treated as duplicate", newID, srv2)
	}
	if _, ok, _ := c.stores[srv1].GetVertex(newID); !ok {
		t.Errorf("acked write %d missing on new primary %d", newID, srv1)
	}
	// Divergence was repaired through the snapshot path, not by luck.
	if got := c.servers[srv1].Metrics().HandoffBytes; got <= 0 {
		t.Errorf("HandoffBytes = %d on the new primary, want > 0 (divergent follower must resync)", got)
	}
}

// TestReplRejoinAfterFalseSuspicion checks that a follower evicted from a
// replica set during a transient outage is automatically invited back once
// its suspicion clears: the replica set returns to the configured factor
// under a fresh epoch and new quorum writes land on the rejoined follower.
func TestStressReplRejoinAfterFalseSuspicion(t *testing.T) {
	const (
		n            = 3
		hb           = 40 * time.Millisecond
		suspectAfter = 3 * hb
	)
	c, chaos, views := newReplCluster(t, n, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = hb
		cfg.SuspectAfter = suspectAfter
	})
	writeAuditGraph(t, c)
	clientView := views[n]
	p := clientView.Partition(1) // primary p, follower (p+1)%n at boot
	prim := p
	fol := (p + 1) % n

	// Crash the follower until the primary evicts it under a fresh epoch.
	chaos[fol].Crash()
	pollUntil(t, 10*time.Second, "replica-set shrink", func() bool {
		a := views[prim].Assignment(p)
		return a.Epoch >= 2 && len(a.Followers) == 0
	})

	// Revive: heartbeats clear the suspicion, and the primary must nudge the
	// ex-replica back in — snapshot catch-up, then a fresh epoch restoring
	// the replication factor.
	chaos[fol].Revive()
	pollUntil(t, 10*time.Second, "automatic rejoin", func() bool {
		a := views[prim].Assignment(p)
		return a.HasReplica(int32(fol)) && a.Epoch >= 3
	})
	if got := c.servers[prim].Metrics().RejoinNudges; got < 1 {
		t.Errorf("RejoinNudges = %d on the primary, want >= 1", got)
	}

	// Durability is back: a quorum write requires — and lands on — the
	// rejoined follower.
	newID := findFreeID(clientView, p, 1000)
	pollUntil(t, 5*time.Second, "client route convergence", func() bool {
		return clientView.Assignment(p).HasReplica(int32(fol))
	})
	if err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: newID, Label: "Marker"}},
	}, WriteOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("post-rejoin write: %v", err)
	}
	pollUntil(t, 5*time.Second, "post-rejoin write on the follower", func() bool {
		_, ok, _ := c.stores[fol].GetVertex(newID)
		return ok
	})
}

// TestWriteSurvivesUnreachableFollower: an append that cannot be sent to one
// follower (its endpoint is gone, as when a dead peer's TCP outbox fills
// before the shrink epoch is published) is not a failed write. The batch is
// sequenced and shipped to the others; the quorum comes from them, and the
// client hears exactly one answer.
func TestWriteSurvivesUnreachableFollower(t *testing.T) {
	const n = 3
	c, _, views := newReplCluster(t, n, 3, nil)
	p := views[n].Partition(1) // Identity(3,3): primary p, followers p+1, p+2
	if err := c.fabric.Endpoint((p + 1) % n).Close(); err != nil {
		t.Fatal(err)
	}
	id := findFreeID(views[n], p, 1)
	err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: id, Label: "Marker"}},
	}, WriteOptions{Timeout: 5 * time.Second, Retries: -1})
	if err != nil {
		t.Fatalf("write with one of two followers unreachable: %v", err)
	}
	if _, ok, _ := c.stores[(p+2)%n].GetVertex(id); !ok {
		t.Errorf("acked write %d missing on the reachable follower", id)
	}
	if got := replAppliedSeq(c.servers[p], p); got != 1 {
		t.Errorf("primary applied seq = %d, want 1 (the write was sequenced once)", got)
	}
}

// TestSnapshotDataOnlyFromPrimary: a snapshot chunk or final marker writes
// a replica's store and sequence counter, so only the server the route
// table names primary may send one. A deposed primary still streaming, or
// any client id, is dropped and counted.
func TestSnapshotDataOnlyFromPrimary(t *testing.T) {
	const n = 3
	c, _, views := newReplCluster(t, n, 2, nil)
	p := 0 // Identity(3,2): primary 0, follower 1
	fol, stranger := 1, 2
	id := findFreeID(views[n], p, 1)
	blob := gstore.EncodeBatch([]gstore.Mutation{{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: id, Label: "Forged"}}})
	const chunk, final = 1, 2 // KindSnapshot sub-modes
	for _, from := range []int{stranger, n} {
		c.servers[fol].Handle(from, wire.Message{Kind: wire.KindSnapshot, Mode: chunk, Part: int32(p), Blob: blob})
		c.servers[fol].Handle(from, wire.Message{Kind: wire.KindSnapshot, Mode: final, Part: int32(p), Epoch: 9, Seq: 99})
	}
	if _, ok, _ := c.stores[fol].GetVertex(id); ok {
		t.Errorf("a snapshot chunk from a non-primary was applied to the follower's store")
	}
	if got := replAppliedSeq(c.servers[fol], p); got != 0 {
		t.Errorf("a final marker from a non-primary moved the follower's applied seq to %d", got)
	}
	if got := c.servers[fol].Metrics().EpochRejects; got != 4 {
		t.Errorf("EpochRejects = %d, want 4", got)
	}
	c.servers[fol].Handle(p, wire.Message{Kind: wire.KindSnapshot, Mode: chunk, Part: int32(p), Blob: blob})
	if _, ok, _ := c.stores[fol].GetVertex(id); !ok {
		t.Errorf("a snapshot chunk from the primary was not applied")
	}
}

// gatedStore holds every full scan until the gate opens, and counts them.
type gatedStore struct {
	gstore.Graph
	gate  chan struct{}
	scans atomic.Int32
}

func (g *gatedStore) ScanVertices(fn func(model.Vertex) bool) error {
	g.scans.Add(1)
	<-g.gate
	return g.Graph.ScanVertices(fn)
}

// TestNakBeyondRingStreamsOffHandler: a nak the ring cannot repair starts a
// full partition scan. It must run where a join request's scan runs — off
// the transport's dispatch goroutine — so the handler returns while the scan
// is still held at the gate.
func TestNakBeyondRingStreamsOffHandler(t *testing.T) {
	gs := &gatedStore{gate: make(chan struct{})}
	c, _, _ := newReplCluster(t, 3, 2, func(cfg *Config) {
		if cfg.ID == 0 {
			gs.Graph = cfg.Store
			cfg.Store = gs
		}
	})
	// Partition 0 (primary 0, follower 1) has sequenced nothing, so its ring
	// is empty and any nak is beyond it.
	returned := make(chan struct{})
	go func() {
		const nak = 1 // KindReplAck sub-mode
		c.servers[0].Handle(1, wire.Message{Kind: wire.KindReplAck, Mode: nak, Part: 0})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Error("the message handler ran the snapshot scan itself")
	}
	pollUntil(t, 5*time.Second, "the scan to start", func() bool { return gs.scans.Load() == 1 })
	close(gs.gate)
	<-returned
	// A repair stream is not a handoff: the follower is in the replica set.
	for _, ps := range c.servers[0].Status().Partitions {
		if ps.Part == 0 && ps.HandoffsInFlight != 0 {
			t.Errorf("a nak repair stream reported %d handoffs in flight", ps.HandoffsInFlight)
		}
	}
}
