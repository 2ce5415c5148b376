package core

import (
	"encoding/json"
	"testing"
	"time"

	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/trace"
)

// TestDAGAcceptance is the end-to-end causal-trace gate: a multi-server
// traversal's assembled DAG must be a single rooted graph whose node count
// equals the coordinator ledger's Created total, whose critical path is
// bounded by the traversal's end-to-end latency from below by the slowest
// single execution, and whose Chrome export parses as trace_event JSON.
func TestDAGAcceptance(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	h, err := c.client.SubmitPlanAsync(
		mustPlan(t, query.V(1, 2).E("run").E("read")),
		SubmitOptions{Mode: ModeGraphTrek, Timeout: 20 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	dag, err := h.FetchDAG(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dag.Summary == nil {
		t.Fatal("assembled DAG carries no coordinator summary")
	}
	if !dag.Complete() {
		t.Fatalf("DAG incomplete: %d nodes vs %d created, orphans %v, duplicates %v",
			len(dag.Nodes), dag.Summary.Created, dag.Orphans, dag.Duplicates)
	}
	if len(dag.Nodes) != dag.Summary.Created {
		t.Fatalf("DAG nodes %d != ledger created %d", len(dag.Nodes), dag.Summary.Created)
	}
	// Both sources sit on one server, so the seed scan is one root
	// execution and the DAG is singly rooted.
	if len(dag.Roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", dag.Roots)
	}
	if dag.CriticalPath == nil {
		t.Fatal("no critical path on a nonempty DAG")
	}
	var maxWall int64
	for _, n := range dag.Nodes {
		if n.WallNs > maxWall {
			maxWall = n.WallNs
		}
	}
	cp := dag.CriticalPath.DurationNs
	if cp < maxWall {
		t.Errorf("critical path %dns shorter than slowest single execution %dns", cp, maxWall)
	}
	if cp > dag.Summary.ElapsedNs {
		t.Errorf("critical path %dns exceeds traversal elapsed %dns", cp, dag.Summary.ElapsedNs)
	}
	// Every non-root hop chain stays within the critical path.
	for _, ch := range dag.TopChains(0) {
		if ch.DurationNs > cp {
			t.Errorf("chain to %d (%dns) exceeds critical path (%dns)", ch.Leaf, ch.DurationNs, cp)
		}
	}
	buf, err := dag.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(dag.Nodes) {
		t.Fatalf("chrome export has %d events for %d nodes", len(doc.TraceEvents), len(dag.Nodes))
	}
}

// TestDAGUnderChaos runs a traversal through a duplicating, delaying
// transport and demands the assembler stay honest: either the DAG passes
// the ledger cross-check, or every deviation is reported precisely — each
// orphan's parent is genuinely absent from the joined span set, and each
// duplicate id genuinely appeared in more than one span. The traversal's
// answer must be exact either way.
func TestDAGUnderChaos(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
			return rpc.ChaosConfig{
				Seed:      seed*17 + int64(id),
				DupProb:   0.2,
				DelayProb: 0.3,
				MaxDelay:  2 * time.Millisecond,
			}
		}, nil)
		loadAuditGraph(t, c)
		plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
		want, err := query.Reference(c.global, plan)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(30 * time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameIDs(res, want.Results) {
			t.Errorf("seed %d: results %v, want %v", seed, res, want.Results)
		}
		dag, err := h.FetchDAG(5 * time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nodeSet := make(map[uint64]bool, len(dag.Nodes))
		for _, n := range dag.Nodes {
			nodeSet[n.Exec] = true
		}
		if dag.Complete() {
			if len(dag.Nodes) != dag.Summary.Created {
				t.Errorf("seed %d: complete DAG with %d nodes vs %d created", seed, len(dag.Nodes), dag.Summary.Created)
			}
			continue
		}
		for _, id := range dag.Orphans {
			if !nodeSet[id] {
				t.Errorf("seed %d: orphan %d not among the DAG's nodes", seed, id)
			}
		}
		// Re-fetch the raw spans and confirm each reported duplicate really
		// occurred more than once (and each orphan's parent really has no
		// span anywhere in the cluster).
		count := make(map[uint64]int)
		byExec := make(map[uint64]trace.Span)
		for _, s := range c.servers {
			for _, sp := range s.SpanDump(h.TravelID()).Spans {
				count[sp.Exec]++
				byExec[sp.Exec] = sp
			}
		}
		for _, id := range dag.Duplicates {
			if count[id] < 2 {
				t.Errorf("seed %d: reported duplicate %d has %d spans", seed, id, count[id])
			}
		}
		for _, id := range dag.Orphans {
			parent := byExec[id].Parent
			if parent == 0 {
				t.Errorf("seed %d: orphan %d has zero parent (roots are not orphans)", seed, id)
			} else if count[parent] > 0 {
				t.Errorf("seed %d: orphan %d's parent %d has a span after all", seed, id, parent)
			}
		}
	}
}

// TestSlowTravelCapture pins the bounded slow-traversal recorder: with a
// 1ns threshold every traversal qualifies, and the coordinator must
// capture a ledger-complete DAG — pulling peer spans over the wire — that
// is then served from SlowTravels.
func TestSlowTravelCapture(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.SlowTravelNs = 1 })
	loadAuditGraph(t, c)
	if _, err := c.client.SubmitPlan(
		mustPlan(t, query.V(1, 2).E("run").E("read")),
		SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 20 * time.Second},
	); err != nil {
		t.Fatal(err)
	}
	// The capture runs asynchronously after the ledger retires.
	deadline := time.Now().Add(10 * time.Second)
	var slow []*trace.DAG
	for len(slow) == 0 && time.Now().Before(deadline) {
		slow = c.servers[0].SlowTravels()
		if len(slow) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(slow) == 0 {
		t.Fatal("no slow-traversal DAG captured")
	}
	dag := slow[0]
	if !dag.Complete() {
		t.Fatalf("captured DAG incomplete: %d nodes, summary %+v, orphans %v, duplicates %v",
			len(dag.Nodes), dag.Summary, dag.Orphans, dag.Duplicates)
	}
	// Peers must have contributed: the traversal spans three servers.
	servers := make(map[int32]bool)
	for _, n := range dag.Nodes {
		servers[n.Server] = true
	}
	if len(servers) < 2 {
		t.Errorf("captured DAG covers %d servers, want cross-server spans", len(servers))
	}
	// The non-coordinator servers capture nothing.
	if got := c.servers[1].SlowTravels(); len(got) != 0 {
		t.Errorf("non-coordinator captured %d DAGs", len(got))
	}
}
