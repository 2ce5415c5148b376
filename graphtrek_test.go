package graphtrek_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphtrek"
	"graphtrek/internal/gen"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
)

func newTestCluster(t *testing.T, opts graphtrek.Options) *graphtrek.Cluster {
	t.Helper()
	if opts.TravelTimeout == 0 {
		opts.TravelTimeout = 15 * time.Second
	}
	c, err := graphtrek.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func loadFig1(t *testing.T, c *graphtrek.Cluster) {
	t.Helper()
	for _, v := range []graphtrek.Vertex{
		{ID: 1, Label: "User", Props: graphtrek.Props{"name": graphtrek.String("sam")}},
		{ID: 10, Label: "Execution", Props: graphtrek.Props{"params": graphtrek.String("-n 1024")}},
		{ID: 20, Label: "File", Props: graphtrek.Props{"type": graphtrek.String("text")}},
		{ID: 21, Label: "File", Props: graphtrek.Props{"type": graphtrek.String("data")}},
	} {
		if err := c.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graphtrek.Edge{
		{Src: 1, Dst: 10, Label: "run", Props: graphtrek.Props{"ts": graphtrek.Int(5)}},
		{Src: 10, Dst: 20, Label: "read"},
		{Src: 10, Dst: 21, Label: "write"},
	} {
		if err := c.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterEndToEndAllModes(t *testing.T) {
	c := newTestCluster(t, graphtrek.Options{Servers: 3})
	loadFig1(t, c)
	q := func() *graphtrek.Travel {
		return graphtrek.V(1).E("run").E("read").Va("type", graphtrek.EQ, "text")
	}
	for _, mode := range []graphtrek.Mode{
		graphtrek.ModeSync, graphtrek.ModeAsyncPlain, graphtrek.ModeGraphTrek,
		graphtrek.ModeClientSide, graphtrek.ModeAsyncCacheOnly, graphtrek.ModeAsyncSchedOnly,
	} {
		got, err := c.Run(q(), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(got, []graphtrek.VertexID{20}) {
			t.Errorf("%v: got %v, want [v20]", mode, got)
		}
	}
}

func TestClusterRejectsZeroServers(t *testing.T) {
	if _, err := graphtrek.NewCluster(graphtrek.Options{}); err == nil {
		t.Fatal("expected error for zero servers")
	}
}

// A partitioner must place vertices on exactly the cluster's servers.
func TestClusterRejectsPartitionerOfOtherSize(t *testing.T) {
	for _, part := range []partition.Partitioner{partition.NewHash(2), partition.NewBalanced(4, nil)} {
		c, err := graphtrek.NewCluster(graphtrek.Options{Servers: 3, Partitioner: part})
		if err == nil {
			c.Close()
			t.Fatalf("a partitioner over %d servers built a 3-server cluster", part.N())
		}
	}
}

func TestClusterPersistentStores(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, graphtrek.Options{Servers: 2, StoreDir: dir})
	loadFig1(t, c)
	got, err := c.Run(graphtrek.V(1).E("run").E("read"), graphtrek.ModeGraphTrek)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []graphtrek.VertexID{20}) {
		t.Fatalf("got %v", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open the same directories: the graph must survive.
	c2 := newTestCluster(t, graphtrek.Options{Servers: 2, StoreDir: dir})
	got, err = c2.Run(graphtrek.V(1).E("run").E("read"), graphtrek.ModeSync)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []graphtrek.VertexID{20}) {
		t.Fatalf("after reopen: got %v", got)
	}
}

func TestClusterGeneratorLoad(t *testing.T) {
	c := newTestCluster(t, graphtrek.Options{Servers: 4})
	var stats gen.MetaStats
	err := c.Load(func(sink gen.Sink) error {
		var err error
		stats, err = gen.Metadata(gen.MetaConfig{
			Users: 3, Jobs: 9, Executions: 90, Files: 30, Seed: 5,
		}, sink)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The Table III query shape must run end to end.
	res, err := c.Run(graphtrek.V(stats.UserID(0)).
		E("run").E("hasExecutions").E("write").E("readBy").E("write").Rtn(),
		graphtrek.ModeGraphTrek)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against Sync.
	res2, err := c.Run(graphtrek.V(stats.UserID(0)).
		E("run").E("hasExecutions").E("write").E("readBy").E("write").Rtn(),
		graphtrek.ModeSync)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("engines disagree: %v vs %v", res, res2)
	}
}

// TestClusterMetricsAndDiskAccounting: a traversal's fetches reach the
// servers' simulated disks and their counters. The three steps of
// V(1).E("run").E("read") each fetch one cold vertex after the step before,
// so the run takes at least three service times, and again after ResetDisks
// makes every block cold; no other cost comes near that.
func TestClusterMetricsAndDiskAccounting(t *testing.T) {
	const service = 20 * time.Millisecond
	c := newTestCluster(t, graphtrek.Options{Servers: 3, DiskService: service})
	loadFig1(t, c)
	for _, run := range []string{"cold start", "after ResetDisks"} {
		start := time.Now()
		if _, err := c.Run(graphtrek.V(1).E("run").E("read"), graphtrek.ModeGraphTrek); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < 3*service {
			t.Errorf("%s: three cold steps took %v, under three disk service times", run, took)
		}
		c.ResetDisks()
	}
	ms := c.ServerMetrics()
	if len(ms) != 3 {
		t.Fatalf("metrics for %d servers", len(ms))
	}
	var total graphtrek.Metrics
	for _, m := range ms {
		if !m.Consistent() {
			t.Errorf("inconsistent accounting: %+v", m)
		}
		total = total.Add(m)
	}
	if total.RealIO == 0 {
		t.Error("no I/O recorded")
	}
}

func TestClusterBuilderErrorSurfaces(t *testing.T) {
	c := newTestCluster(t, graphtrek.Options{Servers: 2})
	if _, err := c.Run(graphtrek.V(1).E(""), graphtrek.ModeGraphTrek); err == nil {
		t.Fatal("expected builder error")
	}
}

func TestValueConstructors(t *testing.T) {
	if !graphtrek.String("x").Equal(graphtrek.String("x")) {
		t.Error("String")
	}
	if graphtrek.Int(1).Equal(graphtrek.Float(1)) {
		t.Error("Int should differ from Float")
	}
	if !graphtrek.Bool(true).B() {
		t.Error("Bool")
	}
	if graphtrek.Float(2.5).F64() != 2.5 {
		t.Error("Float")
	}
}

func TestStragglerOptionsWiring(t *testing.T) {
	plan := graphtrek.PaperStragglers([]int{0, 1}, []int{1, 3}, time.Millisecond, 5)
	c := newTestCluster(t, graphtrek.Options{
		Servers:     2,
		DiskService: 100 * time.Microsecond,
		Stragglers:  plan,
	})
	loadFig1(t, c)
	if _, err := c.Run(graphtrek.V(1).E("run").E("read"), graphtrek.ModeGraphTrek); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedTraversals exercises the paper's motivating scenario:
// multiple concurrent traversals interfering on the same cluster.
func TestConcurrentMixedTraversals(t *testing.T) {
	c := newTestCluster(t, graphtrek.Options{Servers: 4})
	if err := c.Load(func(sink gen.Sink) error {
		_, err := gen.RMAT(gen.RMAT1(8, 4, 2), sink)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	modes := []graphtrek.Mode{graphtrek.ModeSync, graphtrek.ModeGraphTrek, graphtrek.ModeAsyncPlain}
	type result struct {
		idx int
		res []graphtrek.VertexID
		err error
	}
	const n = 9
	ch := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			q := graphtrek.V(model.VertexID(i % 4)).E("link").E("link")
			res, err := c.Run(q, modes[i%len(modes)])
			ch <- result{i, res, err}
		}(i)
	}
	bySeed := map[int][]graphtrek.VertexID{}
	for i := 0; i < n; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("traversal %d: %v", r.idx, r.err)
		}
		seed := r.idx % 4
		if prev, ok := bySeed[seed]; ok && !reflect.DeepEqual(prev, r.res) {
			t.Errorf("seed %d: engines disagree across concurrent runs", seed)
		}
		bySeed[seed] = r.res
	}
}

func ExampleCluster() {
	c, _ := graphtrek.NewCluster(graphtrek.Options{Servers: 2})
	defer c.Close()
	c.AddVertex(graphtrek.Vertex{ID: 1, Label: "User"})
	c.AddVertex(graphtrek.Vertex{ID: 2, Label: "File",
		Props: graphtrek.Props{"type": graphtrek.String("text")}})
	c.AddEdge(graphtrek.Edge{Src: 1, Dst: 2, Label: "read"})
	files, _ := c.Run(
		graphtrek.V(1).E("read").Va("type", graphtrek.EQ, "text"),
		graphtrek.ModeGraphTrek)
	fmt.Println(files)
	// Output: [v2]
}

// TestLiveUpdatesDuringTraversal exercises the paper's online requirement:
// the store ingests production updates while traversals run. The traversal
// result may or may not see the new data (no snapshot isolation is
// claimed), but nothing may deadlock, error, or corrupt state.
func TestLiveUpdatesDuringTraversal(t *testing.T) {
	c := newTestCluster(t, graphtrek.Options{Servers: 4})
	if err := c.Load(func(sink gen.Sink) error {
		_, err := gen.RMAT(gen.RMAT1(9, 6, 3), sink)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		id := graphtrek.VertexID(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.AddVertex(graphtrek.Vertex{ID: id, Label: "Live"}); err != nil {
				writerDone <- err
				return
			}
			if err := c.AddEdge(graphtrek.Edge{Src: id, Dst: id - 1, Label: "link"}); err != nil {
				writerDone <- err
				return
			}
			id++
		}
	}()
	for i := 0; i < 5; i++ {
		q := graphtrek.V(graphtrek.VertexID(i)).E("link").E("link").E("link")
		if _, err := c.Run(q, graphtrek.ModeGraphTrek); err != nil {
			t.Fatalf("traversal %d during live updates: %v", i, err)
		}
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("live writer: %v", err)
	}
}
