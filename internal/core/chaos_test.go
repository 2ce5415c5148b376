package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
)

// TestChaosDifferentialAllModes replays seeded message duplication and
// delay against every engine and demands the exact reference vertex set.
// The engines' correctness machinery — ledger idempotency under duplicate
// registrations, rtn() return-once records, result-set semantics — must
// absorb the faults without changing any answer. Drops and reordering are
// deliberately excluded: a dropped message is a failure (covered by the
// retry tests), and reordering breaks the per-pair FIFO contract the
// completion argument relies on. Id-seeded plans start without the
// broadcast, so every server they reach learns of them from a message that
// carries the plan; after each seed no server may still hold a traversal's
// state or have dropped a message for want of one.
func TestChaosDifferentialAllModes(t *testing.T) {
	plans := []struct {
		name string
		q    *query.Travel
	}{
		{"chain", query.VLabel("User").E("run").E("read")},
		{"rtn", query.VLabel("Execution").Rtn().E("read").Va("type", property.EQ, "text")},
		{"one-source", query.V(1).E("run").E("read")},
		// Started at vertex 1's owner, server 1, this one reaches server 0
		// only through a dispatch from server 2: its execution may end at
		// the ledger before server 2's registration of it arrives.
		{"one-source-far", query.V(1).E("run").E("write")},
		{"owners", query.V(1, 2, 10, 11, 12, 20).E("read")},
		{"rtn-ids", query.V(1, 2).E("run").Rtn().E("read")},
	}
	for _, seed := range []int64{1, 7, 42} {
		c, _ := newChaosCluster(t, 3, func(id int) rpc.ChaosConfig {
			return rpc.ChaosConfig{
				Seed:      seed*31 + int64(id),
				DupProb:   0.15,
				DelayProb: 0.3,
				MaxDelay:  3 * time.Millisecond,
			}
		}, nil)
		loadAuditGraph(t, c)
		base := runtime.NumGoroutine()
		for _, p := range plans {
			plan := mustPlan(t, p.q)
			want, err := query.Reference(c.global, plan)
			if err != nil {
				t.Fatal(err)
			}
			// Coordinator 0 owns no source of the id-seeded plans, which
			// then start with roots sent from it; -1 starts them at their
			// first source's owner.
			for _, coord := range []int{0, -1} {
				for _, mode := range allModes {
					got, err := c.client.SubmitPlan(plan, SubmitOptions{
						Mode: mode, Coordinator: coord, Timeout: 30 * time.Second,
					})
					if err != nil {
						t.Fatalf("seed %d %s coordinator %d %v: %v", seed, p.name, coord, mode, err)
					}
					if !sameIDs(got, want.Results) {
						t.Errorf("seed %d %s coordinator %d %v: got %v want %v", seed, p.name, coord, mode, got, want.Results)
					}
				}
			}
		}
		waitForQuiescence(t, c, base+16)
		c.checkNoOrphans(t)
	}
}

// TestCrashedBackendFailsFastAndRetrySucceeds is the crash-recovery
// end-to-end test: a backend crash-stops mid-traversal, the heartbeat
// detector fails the traversal within a couple of intervals (far under the
// 15s watchdog), and a retried submission routes around the dead peer and
// returns the exact results. The victim is chosen so it owns none of the
// query's vertices — it participates only through its scan-seed root
// execution, whose termination report the crash swallows.
func TestCrashedBackendFailsFastAndRetrySucceeds(t *testing.T) {
	const (
		n      = 3
		victim = 0
		coord  = 2
		hb     = 25 * time.Millisecond
	)
	c, chaos := newChaosCluster(t, n, nil, func(cfg *Config) {
		cfg.HeartbeatInterval = hb // SuspectAfter defaults to 3x
		cfg.TravelTimeout = 15 * time.Second
		cfg.Disk = simio.NewDisk(30*time.Millisecond, 2)
		cfg.Workers = 2
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}
	// The scenario requires the victim to own no query-relevant vertex;
	// guard against the partitioner or test graph changing under us.
	for _, id := range []model.VertexID{1, 2, 10, 11, 12} {
		if c.part.Owner(id) == victim {
			t.Fatalf("test setup broken: victim %d owns vertex %d", victim, id)
		}
	}
	before := runtime.NumGoroutine()

	// Phase 1: crash the victim right after submission. Its scan-seed
	// execution is registered at the coordinator but its termination never
	// arrives, so only the failure detector can end this traversal.
	h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	chaos[victim].Crash()
	start := time.Now()
	_, werr := h.Wait(10 * time.Second)
	elapsed := time.Since(start)
	if werr == nil {
		t.Fatal("traversal touching a crashed backend should fail")
	}
	if !strings.Contains(werr.Error(), "suspected dead") {
		t.Errorf("want a suspected-dead failure, got: %v", werr)
	}
	if elapsed > 2*time.Second {
		t.Errorf("detection took %v; heartbeats should fail the traversal well under the 15s watchdog", elapsed)
	}

	// Detection must be visible in the metrics: at least the coordinator
	// (locally or via gossip) counted a peer-down event.
	var peerDowns int64
	for i, s := range c.servers {
		if i != victim {
			peerDowns += s.Metrics().PeerDownEvents
		}
	}
	if peerDowns < 1 {
		t.Errorf("PeerDownEvents = %d, want >= 1", peerDowns)
	}

	// Phase 2: the §IV-C restart policy. The coordinator now suspects the
	// victim and excludes it from the new traversal, which completes with
	// the full result set (the victim owns nothing the query needs).
	got, err := c.client.SubmitPlan(plan, SubmitOptions{
		Mode: ModeGraphTrek, Coordinator: coord, Timeout: 10 * time.Second, Retries: 2,
	})
	if err != nil {
		t.Fatalf("retry after crash: %v", err)
	}
	if !sameIDs(got, want.Results) {
		t.Errorf("retry results %v, want %v", got, want.Results)
	}

	// No goroutine leaks beyond the crashed server's own stuck travel
	// workers (at most cfg.Workers, if the StartTravel broadcast beat the
	// crash): everything the failed traversal spawned must wind down.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+8 {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("goroutines grew from %d to %d; failed traversal leaked", before, g)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDetectorRecoversAfterPartitionHeals drives the suspect lifecycle both
// ways: a partitioned backend is suspected (traversals fail fast), and once
// the partition heals its heartbeats clear the suspicion, after which
// traversals use all partitions again and return complete results.
func TestDetectorRecoversAfterPartitionHeals(t *testing.T) {
	c, chaos := newChaosCluster(t, 2, nil, func(cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.TravelTimeout = 15 * time.Second
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
	want, err := query.Reference(c.global, plan)
	if err != nil {
		t.Fatal(err)
	}

	chaos[1].Crash()
	// Wait for server 0 to suspect server 1.
	deadline := time.Now().Add(5 * time.Second)
	for c.servers[0].Metrics().PeerDownEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server 0 never suspected the crashed peer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	chaos[1].Revive()
	// Heartbeats resume; once the suspicion clears, a scan-seeded
	// traversal includes server 1 again and the full result set comes
	// back. Right after Revive the first attempts may still exclude the
	// partition, so poll.
	deadline = time.Now().Add(5 * time.Second)
	for {
		got, err := c.client.SubmitPlan(plan, SubmitOptions{
			Mode: ModeGraphTrek, Coordinator: 0, Timeout: 5 * time.Second,
		})
		if err == nil && sameIDs(got, want.Results) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered: got %v (err %v), want %v", got, err, want.Results)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
