package core

import (
	"fmt"
	"testing"
	"time"

	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
)

// namedAuditGraph is loadAuditGraph's structure keyed by external string
// names instead of numeric ids — the same Fig 1-style metadata graph, built
// through the interning dictionary.
type namedVertex struct {
	name  string
	label string
	props property.Map
}

type namedEdge struct {
	src, dst, label string
	props           property.Map
}

var namedAuditVerts = []namedVertex{
	{"user/sam", "User", property.Map{"name": property.String("sam")}},
	{"user/john", "User", property.Map{"name": property.String("john")}},
	{"exec/a1", "Execution", property.Map{"model": property.String("A")}},
	{"exec/b1", "Execution", property.Map{"model": property.String("B")}},
	{"exec/a2", "Execution", property.Map{"model": property.String("A")}},
	{"file/t1", "File", property.Map{"type": property.String("text")}},
	{"file/b1", "File", property.Map{"type": property.String("bin")}},
	{"file/t2", "File", property.Map{"type": property.String("text")}},
}

var namedAuditEdges = []namedEdge{
	{"user/sam", "exec/a1", "run", property.Map{"ts": property.Int(5)}},
	{"user/sam", "exec/b1", "run", property.Map{"ts": property.Int(50)}},
	{"user/john", "exec/a2", "run", property.Map{"ts": property.Int(5)}},
	{"exec/a1", "file/t1", "read", nil},
	{"exec/b1", "file/b1", "read", nil},
	{"exec/a1", "file/t2", "write", nil},
}

// numericNameOf maps loadAuditGraph's numeric ids to the named graph's
// names, so the two clusters' result sets are comparable.
var numericNameOf = map[model.VertexID]string{
	1: "user/sam", 2: "user/john",
	10: "exec/a1", 11: "exec/b1", 12: "exec/a2",
	20: "file/t1", 21: "file/b1", 22: "file/t2",
}

// internDirect interns a name straight into its owning store (the bulk-load
// path on an unreplicated cluster) and mirrors the pair into the oracle
// store.
func internDirect(t testing.TB, c *cluster, name string) model.VertexID {
	t.Helper()
	p := c.part.Owner(model.VertexID(model.HashName(name)))
	id, err := c.stores[p].Intern(name, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.global.ApplyIntern(name, id); err != nil {
		t.Fatal(err)
	}
	return id
}

// loadNamedAuditGraph builds the audit graph on interned ids.
func loadNamedAuditGraph(t testing.TB, c *cluster) map[string]model.VertexID {
	t.Helper()
	ids := make(map[string]model.VertexID)
	for _, v := range namedAuditVerts {
		ids[v.name] = internDirect(t, c, v.name)
	}
	for _, v := range namedAuditVerts {
		c.addVertex(t, model.Vertex{ID: ids[v.name], Label: v.label, Props: v.props})
	}
	for _, e := range namedAuditEdges {
		c.addEdge(t, model.Edge{Src: ids[e.src], Dst: ids[e.dst], Label: e.label, Props: e.props})
	}
	return ids
}

// clusterTotals sums the engine counters across a cluster's servers.
func clusterTotals(c *cluster) metrics.Snapshot {
	var total metrics.Snapshot
	for _, s := range c.servers {
		total = total.Add(s.Metrics())
	}
	return total
}

// resultNames maps a result set through an id→name table, failing on ids
// the table does not know.
func resultNames(t *testing.T, res []model.VertexID, nameOf func(model.VertexID) (string, bool)) map[string]bool {
	t.Helper()
	out := make(map[string]bool, len(res))
	for _, id := range res {
		name, ok := nameOf(id)
		if !ok {
			t.Fatalf("result id %v has no name", id)
		}
		out[name] = true
	}
	return out
}

// TestInternedDifferentialAllModes is the tentpole's differential matrix:
// the same logical graph runs once on plain numeric ids (the pre-refactor
// identity) and once on dictionary-interned ids, under seeded delay chaos,
// across every engine mode. Both paths must return the same logical result
// set (compared by name), match their own reference oracle, and agree on
// the deterministic dedup dispositions: accepted frontier entries,
// cache-eliminated redundant requests, and distinct served requests
// (combined + real — only the combined/real split is timing-dependent).
// Delay-only chaos keeps the message multiset deterministic; duplication
// is exercised separately below because duplicated batches legitimately
// inflate the counters nondeterministically.
func TestInternedDifferentialAllModes(t *testing.T) {
	plans := []struct {
		name string
		q    *query.Travel
	}{
		{"chain", query.VLabel("User").E("run").E("read")},
		{"rtn", query.VLabel("Execution").Rtn().E("read").Va("type", property.EQ, "text")},
	}
	for _, seed := range []int64{3, 11} {
		chaosCfg := func(id int) rpc.ChaosConfig {
			return rpc.ChaosConfig{
				Seed:      seed*17 + int64(id),
				DelayProb: 0.3,
				MaxDelay:  2 * time.Millisecond,
			}
		}
		numC, _ := newChaosCluster(t, 3, chaosCfg, nil)
		loadAuditGraph(t, numC)
		intC, _ := newChaosCluster(t, 3, chaosCfg, nil)
		ids := loadNamedAuditGraph(t, intC)
		if len(ids) != len(numericNameOf) {
			t.Fatalf("interned %d names, numeric graph has %d", len(ids), len(numericNameOf))
		}
		for name, id := range ids {
			if !id.Interned() {
				t.Fatalf("id for %q not interned: %v", name, id)
			}
		}
		intNameOf := func(id model.VertexID) (string, bool) {
			name, ok, _ := intC.global.LookupName(id)
			return name, ok
		}
		numNameOf := func(id model.VertexID) (string, bool) {
			name, ok := numericNameOf[id]
			return name, ok
		}

		for _, p := range plans {
			plan := mustPlan(t, p.q)
			wantNum, err := query.Reference(numC.global, plan)
			if err != nil {
				t.Fatal(err)
			}
			wantInt, err := query.Reference(intC.global, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allModes {
				numBefore, intBefore := clusterTotals(numC), clusterTotals(intC)
				gotNum, err := numC.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: 0, Timeout: 30 * time.Second})
				if err != nil {
					t.Fatalf("numeric seed %d %s %v: %v", seed, p.name, mode, err)
				}
				gotInt, err := intC.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: 0, Timeout: 30 * time.Second})
				if err != nil {
					t.Fatalf("interned seed %d %s %v: %v", seed, p.name, mode, err)
				}
				if !sameIDs(gotNum, wantNum.Results) {
					t.Errorf("numeric seed %d %s %v: got %v want %v", seed, p.name, mode, gotNum, wantNum.Results)
				}
				if !sameIDs(gotInt, wantInt.Results) {
					t.Errorf("interned seed %d %s %v: got %v want %v", seed, p.name, mode, gotInt, wantInt.Results)
				}
				// The logical result sets must be identical name-for-name.
				numNames := resultNames(t, gotNum, numNameOf)
				intNames := resultNames(t, gotInt, intNameOf)
				if len(numNames) != len(intNames) {
					t.Fatalf("seed %d %s %v: numeric names %v vs interned %v", seed, p.name, mode, numNames, intNames)
				}
				for n := range numNames {
					if !intNames[n] {
						t.Errorf("seed %d %s %v: name %q missing from interned results", seed, p.name, mode, n)
					}
				}
				// Deterministic dedup dispositions agree between the paths.
				numD := clusterTotals(numC).Sub(numBefore)
				intD := clusterTotals(intC).Sub(intBefore)
				if numD.Received != intD.Received {
					t.Errorf("seed %d %s %v: Received %d (numeric) vs %d (interned)", seed, p.name, mode, numD.Received, intD.Received)
				}
				if numD.Redundant != intD.Redundant {
					t.Errorf("seed %d %s %v: Redundant %d (numeric) vs %d (interned)", seed, p.name, mode, numD.Redundant, intD.Redundant)
				}
				if ns, is := numD.Combined+numD.RealIO, intD.Combined+intD.RealIO; ns != is {
					t.Errorf("seed %d %s %v: served %d (numeric) vs %d (interned)", seed, p.name, mode, ns, is)
				}
				if !numD.Consistent() || !intD.Consistent() {
					t.Errorf("seed %d %s %v: disposition identity broken (numeric %+v, interned %+v)", seed, p.name, mode, numD, intD)
				}
			}
		}
	}
}

// TestInternedChaosDuplicationLedger re-runs the interned path under
// message duplication and checks what remains invariant there: exact
// oracle results, the disposition accounting identity, and a balanced
// execution ledger (created == ended) on every server-side mode.
func TestInternedChaosDuplicationLedger(t *testing.T) {
	c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
		return rpc.ChaosConfig{
			Seed:      101 + int64(id),
			DupProb:   0.15,
			DelayProb: 0.3,
			MaxDelay:  3 * time.Millisecond,
		}
	}, nil)
	loadNamedAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		if mode == ModeClientSide {
			// Client-mode batches are not ledger executions; the plain
			// result check below covers it via the matrix test.
			continue
		}
		before := clusterTotals(c)
		h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: mode, Coordinator: 0, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait(30 * time.Second)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !sameIDs(got, want.Results) {
			t.Errorf("%v: got %v want %v", mode, got, want.Results)
		}
		// The exact disposition identity does not survive duplication: a
		// copy arriving after the travel retires is counted Received but
		// dropped by the done-travel guard without a classification (the
		// delay-only matrix above asserts strict equality). What must hold
		// is the inequality — classifications never exceed receipts.
		if d := clusterTotals(c).Sub(before); d.Redundant+d.Combined+d.RealIO > d.Received {
			t.Errorf("%v: classified more than received: %+v", mode, d)
		}
		dag, err := h.FetchDAG(0)
		if err != nil {
			t.Fatalf("%v: fetch DAG: %v", mode, err)
		}
		if dag.Summary == nil {
			t.Fatalf("%v: no ledger summary", mode)
		}
		if dag.Summary.Created != dag.Summary.Ended {
			t.Errorf("%v: ledger created %d != ended %d", mode, dag.Summary.Created, dag.Summary.Ended)
		}
		if len(dag.Nodes) == 0 {
			t.Errorf("%v: no spans collected", mode)
		}
	}
}

// namesForPartition generates distinct names whose hash routes to
// partition p under the view's stable id→partition map. (Deliberately not
// View.Owner, which resolves to the partition's *current primary server*
// and therefore changes across failover.)
func namesForPartition(view *route.View, p, n int, prefix string) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("%s/%d", prefix, i)
		if view.Partition(model.VertexID(model.HashName(name))) == p {
			out = append(out, name)
		}
	}
	return out
}

// TestReplInternQuorumHandoffAndFailover drives the dictionary through the
// full PR 6 lifecycle: quorum-replicated allocation, idempotent re-intern,
// snapshot + live-tail handoff onto a joining server, and epoch-fenced
// failover — after which the promoted replica must hold the identical
// mapping and continue allocating without collisions.
func TestStressReplInternQuorumHandoffAndFailover(t *testing.T) {
	const (
		n            = 3
		hb           = 100 * time.Millisecond
		suspectAfter = 3 * hb
	)
	c, chaos, views := newReplCluster(t, n, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = hb
		cfg.SuspectAfter = suspectAfter
	})
	clientView := views[n]

	// Anchor everything on one partition: its boot primary is server p with
	// follower (p+1)%n, and (p+2)%n stays free to join.
	names := namesForPartition(clientView, 0, 5, "obj")
	p := 0
	primary := p
	follower := (p + 1) % n
	joiner := (p + 2) % n

	ids, err := c.client.Intern(names, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !id.Interned() || id.InternedPartition() != p {
			t.Fatalf("id %v for %q: want interned id of partition %d", id, names[i], p)
		}
		if id.InternedCounter() != uint64(i) {
			t.Errorf("id %v for %q: counter %d, want dense %d", id, names[i], id.InternedCounter(), i)
		}
	}
	// Idempotent: re-interning returns the same ids.
	again, err := c.client.Intern(names, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(again, ids) {
		t.Fatalf("re-intern gave %v, want %v", again, ids)
	}
	// The quorum (rf=2: primary + follower) holds the mapping at ack time.
	for _, srv := range []int{primary, follower} {
		for i, name := range names {
			id, ok, err := c.stores[srv].LookupID(name)
			if err != nil || !ok || id != ids[i] {
				t.Fatalf("server %d: LookupID(%q) = %v ok=%v err=%v, want %v", srv, name, id, ok, err, ids[i])
			}
		}
	}
	// Client-boundary round trips.
	resolved, err := c.client.ResolveNames(names, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(resolved, ids) {
		t.Fatalf("ResolveNames = %v, want %v", resolved, ids)
	}
	back, err := c.client.NamesOf(ids, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range back {
		if name != names[i] {
			t.Fatalf("NamesOf[%d] = %q, want %q", i, name, names[i])
		}
	}

	// Online handoff: the snapshot stream must carry the dictionary.
	if err := c.servers[joiner].JoinPartition(p); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "joiner published as follower", func() bool {
		return clientView.Assignment(p).HasReplica(int32(joiner))
	})
	pollUntil(t, 5*time.Second, "dictionary on the joiner", func() bool {
		for i, name := range names {
			if id, ok, _ := c.stores[joiner].LookupID(name); !ok || id != ids[i] {
				return false
			}
		}
		return true
	})

	// Live tail after the join: new allocations reach the joiner too.
	tailNames := namesForPartition(clientView, p, 2, "tail")
	tailIDs, err := c.client.Intern(tailNames, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "tail allocations on the joiner", func() bool {
		for i, name := range tailNames {
			if id, ok, _ := c.stores[joiner].LookupID(name); !ok || id != tailIDs[i] {
				return false
			}
		}
		return true
	})

	// Failover: crash the primary; a surviving replica is promoted and must
	// keep resolving the old names AND allocate fresh ids past the dead
	// primary's counter (the replayed OpIntern entries advanced it).
	chaos[primary].Crash()
	pollUntil(t, 10*time.Second, "promotion away from the dead primary", func() bool {
		return clientView.Assignment(p).Primary != int32(primary)
	})
	lateNames := namesForPartition(clientView, p, 2, "late")
	lateIDs, err := c.client.Intern(lateNames, WriteOptions{Timeout: 20 * time.Second, Retries: 5})
	if err != nil {
		t.Fatalf("intern after failover: %v", err)
	}
	seen := make(map[model.VertexID]bool)
	for _, id := range append(append([]model.VertexID{}, ids...), tailIDs...) {
		seen[id] = true
	}
	for i, id := range lateIDs {
		if !id.Interned() || id.InternedPartition() != p {
			t.Fatalf("post-failover id %v for %q not on partition %d", id, lateNames[i], p)
		}
		if seen[id] {
			t.Fatalf("post-failover allocation %v for %q collides with a pre-failover id", id, lateNames[i])
		}
	}
	resolved, err = c.client.ResolveNames(names, WriteOptions{Timeout: 20 * time.Second, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(resolved, ids) {
		t.Fatalf("post-failover ResolveNames = %v, want %v", resolved, ids)
	}
}
