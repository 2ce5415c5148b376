package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
)

// TestMutateNamedOps drives the name-addressed mutation API end to end on a
// replicated cluster: adds intern their names and land on every replica,
// the returned id map matches the dictionary, deletes resolve read-only,
// and deleting a never-interned name is a no-op rather than an error.
func TestMutateNamedOps(t *testing.T) {
	c, _, views := newReplCluster(t, 3, 2, nil)
	view := views[3]
	ids, err := c.client.Mutate([]NamedMutation{
		{Op: NamedAddVertex, Name: "alice", Label: "User", Props: property.Map{"team": property.String("infra")}},
		{Op: NamedAddVertex, Name: "job-1", Label: "Execution"},
		{Op: NamedAddEdge, Src: "alice", Label: "run", Dst: "job-1", Props: property.Map{"ts": property.Int(5)}},
	}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids["alice"] == 0 || ids["job-1"] == 0 {
		t.Fatalf("Mutate returned ids %v, want alice and job-1", ids)
	}
	got, err := c.client.ResolveNames([]string{"alice", "job-1"}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != ids["alice"] || got[1] != ids["job-1"] {
		t.Fatalf("dictionary resolves %v, Mutate returned %v", got, ids)
	}
	for name, id := range ids {
		p := view.Partition(id)
		for _, r := range view.Assignment(p).Replicas() {
			if _, ok, err := c.stores[r].GetVertex(id); err != nil || !ok {
				t.Fatalf("vertex %q (%d) missing on replica %d (ok=%v err=%v)", name, id, r, ok, err)
			}
		}
	}
	edges := 0
	prim := int(view.Assignment(view.Partition(ids["alice"])).Primary)
	if err := c.stores[prim].ScanAllEdges(ids["alice"], func(model.Edge) bool { edges++; return true }); err != nil {
		t.Fatal(err)
	}
	if edges != 1 {
		t.Fatalf("alice has %d out-edges, want 1", edges)
	}

	// Re-adding a name updates in place under the same id.
	ids2, err := c.client.Mutate([]NamedMutation{
		{Op: NamedAddVertex, Name: "alice", Label: "User", Props: property.Map{"team": property.String("storage")}},
	}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ids2["alice"] != ids["alice"] {
		t.Fatalf("re-add moved alice from id %d to %d", ids["alice"], ids2["alice"])
	}
	v, ok, _ := c.stores[prim].GetVertex(ids["alice"])
	if !ok || v.Props["team"] != property.String("storage") {
		t.Fatalf("re-add did not update properties: %+v", v)
	}

	// Deletes: edge first, then vertex; unknown names are no-ops.
	if _, err := c.client.Mutate([]NamedMutation{
		{Op: NamedDelEdge, Src: "alice", Label: "run", Dst: "job-1"},
		{Op: NamedDelVertex, Name: "job-1"},
		{Op: NamedDelVertex, Name: "never-interned"},
		{Op: NamedDelEdge, Src: "alice", Label: "run", Dst: "also-never-interned"},
	}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.stores[int(view.Assignment(view.Partition(ids["job-1"])).Primary)].GetVertex(ids["job-1"]); ok {
		t.Error("job-1 still present after NamedDelVertex")
	}
	edges = 0
	if err := c.stores[prim].ScanAllEdges(ids["alice"], func(model.Edge) bool { edges++; return true }); err != nil {
		t.Fatal(err)
	}
	if edges != 0 {
		t.Errorf("alice has %d out-edges after NamedDelEdge, want 0", edges)
	}
	if _, err := c.client.Mutate([]NamedMutation{{Op: NamedOp(99), Name: "x"}}, WriteOptions{}); err == nil || Retryable(err) {
		t.Errorf("unknown op must be a terminal error, got %v", err)
	}
}

// TestBulkLoadOrderAndOverwrite checks the bulk loader's two contracts:
// everything lands on every replica, and same-key writes apply in input
// order even when split across rounds (MaxBatch smaller than a partition's
// run) — the last write wins.
func TestBulkLoadOrderAndOverwrite(t *testing.T) {
	c, _, views := newReplCluster(t, 3, 2, nil)
	view := views[3]
	const n = 90
	var muts []gstore.Mutation
	ids := make([]model.VertexID, 0, n)
	for i := 0; i < n; i++ {
		id := model.VertexID(1000 + i)
		ids = append(ids, id)
		// Three generations of each vertex, interleaved across the whole
		// input, so every partition's run holds same-key rewrites spanning
		// multiple MaxBatch rounds.
		muts = append(muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: model.Vertex{
			ID: id, Label: "Doc", Props: property.Map{"gen": property.Int(1)},
		}})
	}
	for gen := int64(2); gen <= 3; gen++ {
		for _, id := range ids {
			muts = append(muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: model.Vertex{
				ID: id, Label: "Doc", Props: property.Map{"gen": property.Int(gen)},
			}})
		}
	}
	if err := c.client.BulkLoad(muts, BulkOptions{MaxBatch: 7}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		p := view.Partition(id)
		for _, r := range view.Assignment(p).Replicas() {
			v, ok, err := c.stores[r].GetVertex(id)
			if err != nil || !ok {
				t.Fatalf("vertex %d missing on replica %d (ok=%v err=%v)", id, r, ok, err)
			}
			if view.Assignment(p).Primary == r && v.Props["gen"] != property.Int(3) {
				t.Fatalf("vertex %d gen = %v on primary %d, want 3 (order lost across rounds)", id, v.Props["gen"], r)
			}
		}
	}
	// Empty loads are a no-op; unreplicated clients fail terminally.
	if err := c.client.BulkLoad(nil, BulkOptions{}); err != nil {
		t.Errorf("empty BulkLoad: %v", err)
	}
	plain := NewClient(partition.NewHash(3))
	if err := plain.BulkLoad(muts[:1], BulkOptions{}); err == nil || Retryable(err) {
		t.Errorf("BulkLoad without a route table must fail terminally, got %v", err)
	}
}

// TestStressChurnTraversalOracle runs traversals and named writes
// concurrently, then checks the live cluster against the writes it
// acknowledged: a shadow store built from the audit graph plus every batch a
// writer's Mutate acknowledged, under the ids Mutate returned, must answer
// the audit query exactly like the live cluster. No acknowledged file may be
// missing, and the §VII-A identity must hold on every server over everything
// the traversals executed beside the writes.
func TestStressChurnTraversalOracle(t *testing.T) {
	c, _, _ := newReplCluster(t, 3, 2, nil)
	writeAuditGraph(t, c)
	shadow := c.global // writeAuditGraph mirrored the audit graph into it
	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))

	// Churn: four writers extend the graph with User->Execution->File chains
	// through the named-mutation path while two readers traverse through it.
	var (
		writers sync.WaitGroup
		ackMu   sync.Mutex
		acked   []model.VertexID // every File a writer's Mutate acknowledged
	)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 6; i++ {
				u := fmt.Sprintf("u-%d-%d", w, i)
				x := fmt.Sprintf("x-%d-%d", w, i)
				y := fmt.Sprintf("y-%d-%d", w, i)
				fileProps := property.Map{"type": property.String("text")}
				ids, err := c.client.Mutate([]NamedMutation{
					{Op: NamedAddVertex, Name: u, Label: "User"},
					{Op: NamedAddVertex, Name: x, Label: "Execution"},
					{Op: NamedAddVertex, Name: y, Label: "File", Props: fileProps},
					{Op: NamedAddEdge, Src: u, Label: "run", Dst: x},
					{Op: NamedAddEdge, Src: x, Label: "read", Dst: y},
				}, WriteOptions{Timeout: 10 * time.Second})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				// The acknowledged batch, as Mutate lowered it.
				ackMu.Lock()
				for _, m := range []gstore.Mutation{
					{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: ids[u], Label: "User"}},
					{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: ids[x], Label: "Execution"}},
					{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: ids[y], Label: "File", Props: fileProps}},
					{Op: gstore.OpPutEdge, Edge: model.Edge{Src: ids[u], Label: "run", Dst: ids[x]}},
					{Op: gstore.OpPutEdge, Edge: model.Edge{Src: ids[x], Label: "read", Dst: ids[y]}},
				} {
					if err := m.Apply(shadow); err != nil {
						t.Errorf("shadow apply: %v", err)
					}
				}
				acked = append(acked, ids[y])
				ackMu.Unlock()
			}
		}(w)
	}
	readErrs := make(chan error, 2)
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				_, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2})
				if err != nil && !Retryable(err) {
					readErrs <- err
					return
				}
			}
		}()
	}
	// Wait for the writers, then stop the readers.
	writersDone := make(chan struct{})
	go func() { writers.Wait(); close(writersDone) }()
	select {
	case err := <-readErrs:
		t.Fatalf("concurrent traversal failed terminally: %v", err)
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("writers stuck")
	}
	close(stopReads)
	readers.Wait()

	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for _, id := range acked {
		if i := sort.Search(len(got), func(i int) bool { return got[i] >= id }); i == len(got) || got[i] != id {
			t.Errorf("acknowledged file %d missing from the live traversal", id)
		}
	}
	for _, s := range c.servers {
		if m := s.Metrics(); !m.Consistent() {
			t.Errorf("server %d: accounting identity broken under churn: %+v", s.ID(), m)
		}
	}
	// Differential oracle: every write was acknowledged before the query
	// ran, so the shadow store answers it exactly like the live cluster.
	ref, err := query.Reference(shadow, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]model.VertexID(nil), ref.Results...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !sameIDs(got, want) {
		t.Errorf("live traversal returned %v, the acknowledged writes give %v", got, want)
	}
	c.checkNoOrphans(t)
}

// TestStressMutateCacheIndexCoherence hammers one indexed, read-cached
// cluster with concurrent named mutations (property flips on indexed keys)
// and traversals whose final step filters on that index. After the churn,
// the traversal must see exactly the final committed state — a stale read
// cache or unmaintained index surfaces as phantom or missing results.
func TestStressMutateCacheIndexCoherence(t *testing.T) {
	c, _, _ := newReplCluster(t, 3, 2, func(cfg *Config) {
		cfg.Store = gstore.NewCachedGraph(cfg.Store, 1<<20)
		enableIndex(cfg.Store, "type")
	})
	const docs = 12
	if _, err := c.client.Mutate([]NamedMutation{
		{Op: NamedAddVertex, Name: "root", Label: "Job"},
	}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, query.VLabel("Job").E("emit").Va("type", property.EQ, "text"))

	var wg sync.WaitGroup
	finalType := make([]string, docs)
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%d", d)
			// Flip the indexed property several times; the last value is
			// deterministic per doc.
			vals := []string{"text", "bin", "text", "bin"}
			if d%2 == 0 {
				vals = append(vals, "text")
			} else {
				vals = append(vals, "bin")
			}
			finalType[d] = vals[len(vals)-1]
			for i, v := range vals {
				muts := []NamedMutation{
					{Op: NamedAddVertex, Name: name, Label: "Doc", Props: property.Map{"type": property.String(v)}},
				}
				if i == 0 {
					muts = append(muts, NamedMutation{Op: NamedAddEdge, Src: "root", Label: "emit", Dst: name})
				}
				if _, err := c.client.Mutate(muts, WriteOptions{Timeout: 10 * time.Second}); err != nil {
					t.Errorf("doc %d: %v", d, err)
					return
				}
			}
		}(d)
	}
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2}); err != nil && !Retryable(err) {
				t.Errorf("concurrent traversal: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stopReads)
	<-readsDone

	// Expected final state: the text docs' interned ids.
	var wantNames []string
	for d := 0; d < docs; d++ {
		if finalType[d] == "text" {
			wantNames = append(wantNames, fmt.Sprintf("doc-%d", d))
		}
	}
	ids, err := c.client.ResolveNames(wantNames, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]model.VertexID(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	pollUntil(t, 10*time.Second, "coherent post-churn traversal", func() bool {
		got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2})
		if err != nil {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return sameIDs(got, want)
	})
	// The sync engine (separate read path) agrees.
	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeSync, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !sameIDs(got, want) {
		t.Errorf("sync engine sees %v through cache+index, want %v", got, want)
	}
}

// TestProductionStackReplicated runs the engine's write path on the store
// stack graphtrek-server and the benchmark build — the kv-backed gstore.Store
// behind a read cache, one property key indexed — at replication factor 2:
// named adds and vertex deletes, a RANGE seed resolved through the index,
// Client.NamesOf, and a JoinPartition handoff while writes continue. The
// live cluster must answer like query.Reference over a MemStore replay of
// every acknowledged write, and the joiner must end up holding the
// partition it joined.
func TestProductionStackReplicated(t *testing.T) {
	const n = 3
	c, _, views := newReplCluster(t, n, 2, func(cfg *Config) {
		st, err := gstore.Open(t.TempDir(), kv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = gstore.NewCachedGraph(st, 1<<20)
		enableIndex(cfg.Store, "size")
	})
	clientView := views[n]

	// mutate writes one batch and replays what it acknowledged into shadow.
	shadow := gstore.NewMemStore()
	mutate := func(muts ...NamedMutation) error {
		ids, err := c.client.Mutate(muts, WriteOptions{Timeout: 10 * time.Second})
		if err != nil {
			return err
		}
		for _, m := range muts {
			var gm gstore.Mutation
			switch m.Op {
			case NamedAddVertex:
				if err := shadow.ApplyIntern(m.Name, ids[m.Name]); err != nil {
					return err
				}
				gm = gstore.Mutation{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: ids[m.Name], Label: m.Label, Props: m.Props}}
			case NamedAddEdge:
				gm = gstore.Mutation{Op: gstore.OpPutEdge, Edge: model.Edge{Src: ids[m.Src], Label: m.Label, Dst: ids[m.Dst]}}
			case NamedDelVertex:
				id, _, _ := shadow.LookupID(m.Name)
				gm = gstore.Mutation{Op: gstore.OpDelVertex, ID: id}
			}
			if err := gm.Apply(shadow); err != nil {
				return err
			}
		}
		return nil
	}
	// addJob writes job-<tag> (size = its number mod 100) and the file it
	// writes; every third job deletes the job added two before it, which
	// drops its index row and its out-edge.
	addJob := func(tag string, i int) error {
		job, file := fmt.Sprintf("job-%s-%d", tag, i), fmt.Sprintf("file-%s-%d", tag, i)
		if err := mutate(
			NamedMutation{Op: NamedAddVertex, Name: job, Label: "Job", Props: property.Map{"size": property.Int(int64(i * 7 % 100))}},
			NamedMutation{Op: NamedAddVertex, Name: file, Label: "File"},
			NamedMutation{Op: NamedAddEdge, Src: job, Label: "write", Dst: file},
		); err != nil {
			return err
		}
		if i%3 == 2 {
			return mutate(NamedMutation{Op: NamedDelVertex, Name: fmt.Sprintf("job-%s-%d", tag, i-2)})
		}
		return nil
	}
	for i := 0; i < 12; i++ {
		if err := addJob("boot", i); err != nil {
			t.Fatal(err)
		}
	}

	// Partition p's boot replicas are {p, p+1}; server p+2 joins it while a
	// writer keeps adding and deleting, until the joiner is published.
	const p = 0
	joiner := (p + 2) % n
	stop, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := addJob("live", i); err != nil {
				t.Errorf("write during handoff: %v", err)
				return
			}
		}
	}()
	stopWriter := sync.OnceFunc(func() { close(stop); <-writerDone })
	t.Cleanup(stopWriter)
	if err := c.servers[joiner].JoinPartition(p); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, "joiner published as follower", func() bool {
		return clientView.Assignment(p).HasReplica(int32(joiner))
	})
	stopWriter()

	// The joiner holds partition p as the acknowledged writes left it:
	// every vertex with its properties and out-edges, no deleted vertex,
	// and the dictionary.
	var inP []model.Vertex
	if err := shadow.ScanVertices(func(v model.Vertex) bool {
		if clientView.Partition(v.ID) == p {
			inP = append(inP, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(inP) == 0 {
		t.Fatalf("no written vertex landed in partition %d", p)
	}
	outEdges := func(g gstore.Graph, id model.VertexID) (n int) {
		if err := g.ScanAllEdges(id, func(model.Edge) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	joined := c.stores[joiner]
	pollUntil(t, 5*time.Second, "partition on the joiner", func() bool {
		for _, w := range inP {
			v, ok, err := joined.GetVertex(w.ID)
			if err != nil || !ok || v.Label != w.Label || v.Props["size"] != w.Props["size"] ||
				outEdges(joined, w.ID) != outEdges(shadow, w.ID) {
				return false
			}
		}
		return true
	})
	if err := shadow.ScanInterned(func(name string, id model.VertexID) bool {
		if clientView.Partition(id) != p {
			return true
		}
		if got, ok, err := joined.LookupID(name); err != nil || !ok || got != id {
			t.Errorf("joiner: LookupID(%q) = %v ok=%v err=%v, want %v", name, got, ok, err, id)
		}
		if _, ok, _ := shadow.GetVertex(id); !ok {
			if _, ok, _ := joined.GetVertex(id); ok {
				t.Errorf("joiner holds deleted vertex %q", name)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// A RANGE seed resolves through the index and answers like the oracle.
	plan := mustPlan(t, query.VLabel("Job").Va("size", property.RANGE, 10, 60).E("write"))
	got, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1, Timeout: 10 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := query.Reference(shadow, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]model.VertexID(nil), ref.Results...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) == 0 || !sameIDs(got, want) {
		t.Fatalf("RANGE-seeded traversal = %v, the acknowledged writes give %v", got, want)
	}
	var hits int64
	for _, s := range c.servers {
		hits += s.Metrics().SeedIndexHits
	}
	if hits == 0 {
		t.Error("the RANGE seed did not go through the index")
	}
	names, err := c.client.NamesOf(got, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if want, _, _ := shadow.LookupName(id); names[i] != want {
			t.Errorf("NamesOf(%v) = %q, want %q", id, names[i], want)
		}
	}
	c.checkNoOrphans(t)
}
