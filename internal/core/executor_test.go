package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
)

// sharedExecPlans builds a few structurally different plans over the random
// test graph, with their oracle results.
func sharedExecPlans(t *testing.T, c *cluster) []*query.Plan {
	t.Helper()
	return []*query.Plan{
		mustPlan(t, query.V(1, 2, 3).E("run").E("read")),
		mustPlan(t, query.VLabel("User").E("run")),
		mustPlan(t, query.V(5, 6, 7).E("run").Rtn().E("read").Rtn()),
		mustPlan(t, query.V(0, 10, 20, 30).E("write")),
	}
}

// TestSharedExecutorGoroutineBound is the scale contract of the shared
// executor: K=64 simultaneous traversals on 8 servers must not grow the
// goroutine count with K — the per-traversal-pool design cost
// O(K × servers × Workers) goroutines, the shared pool costs
// O(servers × Workers) regardless of K.
func TestStressSharedExecutorGoroutineBound(t *testing.T) {
	const (
		servers = 8
		workers = 4
		kAsync  = 56 // server-side engines, submitted without client goroutines
		kClient = 8  // client-driven engine, one goroutine each at the client
	)
	c := newCluster(t, servers, func(cfg *Config) {
		cfg.Workers = workers
	})
	r := rand.New(rand.NewSource(7))
	randomGraph(t, c, r, 80, 400)
	plans := sharedExecPlans(t, c)
	want := make([][]model.VertexID, len(plans))
	for i, p := range plans {
		ref, err := query.Reference(c.global, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref.Results
	}

	base := runtime.NumGoroutine()

	// Launch the async wave and track the peak goroutine count while it is
	// in flight.
	modes := []Mode{ModeSync, ModeAsyncPlain, ModeGraphTrek, ModeAsyncCacheOnly, ModeAsyncSchedOnly}
	type flight struct {
		h    *Handle
		plan int
		mode Mode
	}
	flights := make([]flight, 0, kAsync)
	peak := base
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	for i := 0; i < kAsync; i++ {
		pi := i % len(plans)
		mode := modes[i%len(modes)]
		h, err := c.client.SubmitPlanAsync(plans[pi], SubmitOptions{Mode: mode, Coordinator: -1})
		if err != nil {
			t.Fatalf("submit %d (%v): %v", i, mode, err)
		}
		flights = append(flights, flight{h, pi, mode})
		sample()
	}
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			sample()
			select {
			case <-time.After(time.Millisecond):
			case <-stop:
				return
			}
		}
	}()
	for i, f := range flights {
		got, err := f.h.Wait(30 * time.Second)
		if err != nil {
			t.Fatalf("traversal %d (%v): %v", i, f.mode, err)
		}
		if !sameIDs(got, want[f.plan]) {
			t.Errorf("traversal %d (%v): results = %v, want %v", i, f.mode, got, want[f.plan])
		}
	}
	close(stop)
	<-samplerDone

	// The old per-traversal design would have added ≥ kAsync × workers
	// goroutines on the coordinator servers alone (2048 cluster-wide); the
	// shared pool adds none. Allow modest slack for runtime/test goroutines.
	const slack = 48
	t.Logf("goroutines peaked at %d over the baseline of %d", peak-base, base)
	if peak > base+slack {
		t.Errorf("goroutines peaked at %d (baseline %d): executor is spawning per-traversal goroutines", peak, base)
	}

	// The client-driven engine runs through the same executor; its
	// goroutines live at the client, not per-traversal on the servers.
	var wg sync.WaitGroup
	errCh := make(chan error, kClient)
	for i := 0; i < kClient; i++ {
		pi := i % len(plans)
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			got, err := c.client.SubmitPlan(plans[pi], SubmitOptions{Mode: ModeClientSide, Timeout: 30 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			if !sameIDs(got, want[pi]) {
				errCh <- fmt.Errorf("client-side results = %v, want %v", got, want[pi])
			}
		}(pi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// No leaks: once every traversal finished, the goroutine count returns
	// to the standing baseline and every executor queue is empty.
	waitForQuiescence(t, c, base+slack)
}

// waitForQuiescence polls until every server's executor queue is drained,
// all traversal state is released and the goroutine count is back under the
// given bound.
func waitForQuiescence(t *testing.T, c *cluster, maxGoroutines int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := runtime.NumGoroutine() <= maxGoroutines
		for _, s := range c.servers {
			if s.exec.Len() != 0 {
				settled = false
			}
			s.mu.Lock()
			if len(s.travels) != 0 {
				settled = false
			}
			s.mu.Unlock()
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			for i, s := range c.servers {
				s.mu.Lock()
				t.Logf("server %d: queue=%d travels=%d", i, s.exec.Len(), len(s.travels))
				s.mu.Unlock()
			}
			t.Fatalf("cluster did not quiesce: %d goroutines (bound %d)", runtime.NumGoroutine(), maxGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSharedExecutorBackpressure drives a server past its MaxQueueDepth and
// checks the rejection surfaces as a retryable traversal error in both the
// server-side dispatch path and the client-side VisitReq path.
func TestStressSharedExecutorBackpressure(t *testing.T) {
	c := newCluster(t, 1, func(cfg *Config) { cfg.MaxQueueDepth = 1 })
	loadAuditGraph(t, c)

	// Server-side: the two-entry root dispatch exceeds the depth-1 bound.
	plan := mustPlan(t, query.V(1, 2).E("run"))
	_, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Timeout: 10 * time.Second})
	if err == nil {
		t.Fatal("overloaded server accepted the traversal")
	}
	if !strings.Contains(err.Error(), "backpressure") || !strings.Contains(err.Error(), "retry") {
		t.Errorf("rejection error not marked retryable: %v", err)
	}

	// Client-side: the VisitReq batch takes the same admission check, and
	// its span is recorded as failed like a server-side execution's.
	refused := func() map[uint64]bool {
		travels := map[uint64]bool{}
		for _, sp := range c.servers[0].SpanDump(0).Spans {
			if strings.Contains(sp.Err, "backpressure") {
				travels[sp.Travel] = true
			}
		}
		return travels
	}
	before := refused()
	_, err = c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeClientSide, Timeout: 10 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "backpressure") {
		t.Errorf("client-side rejection = %v, want backpressure error", err)
	}
	if after := refused(); len(after) != len(before)+1 {
		t.Errorf("traversals with a refused span: %d before the client-side run, %d after; want one more", len(before), len(after))
	}

	// A single-source plan fits the bound step by step... until its first
	// expansion fans out to two entries; a server with headroom runs the
	// same plans to completion.
	roomy := newCluster(t, 1, func(cfg *Config) { cfg.MaxQueueDepth = 1 << 16 })
	loadAuditGraph(t, roomy)
	roomy.runAllModes(t, plan)
	if got := roomy.servers[0].Metrics().Rejected; got != 0 {
		t.Errorf("roomy server rejected %d batches", got)
	}
	if c.servers[0].Metrics().Rejected == 0 {
		t.Error("overloaded server recorded no rejections")
	}
}

// TestSharedExecutorRetryAfterRejection: a rejected traversal retried once
// the queue has drained succeeds — the contract that makes ErrBackpressure
// a load-shedding signal rather than a hard failure.
func TestStressSharedExecutorRetryAfterRejection(t *testing.T) {
	c := newCluster(t, 1, func(cfg *Config) { cfg.MaxQueueDepth = 1 })
	loadAuditGraph(t, c)
	single := mustPlan(t, query.V(1))
	ref, err := query.Reference(c.global, single)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 admits single-entry batches: the one-source, zero-hop plan
	// completes even on the tightly bounded server.
	got, err := c.client.SubmitPlan(single, SubmitOptions{Mode: ModeGraphTrek, Timeout: 10 * time.Second, Retries: 2})
	if err != nil {
		t.Fatalf("single-entry traversal failed under depth bound: %v", err)
	}
	if !sameIDs(got, ref.Results) {
		t.Errorf("results = %v, want %v", got, ref.Results)
	}
}

// TestSharedExecutorCancelEviction: cancelling a traversal evicts its
// pending groups from the shared queue — dead work never occupies a worker
// — and the executor keeps serving subsequent traversals correctly.
func TestStressSharedExecutorCancelEviction(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.Workers = 1 })
	r := rand.New(rand.NewSource(11))
	randomGraph(t, c, r, 80, 600)
	plan := mustPlan(t, query.VLabel("User").E("run").E("read").E("write"))

	for i := 0; i < 8; i++ {
		h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: ModeAsyncPlain, Coordinator: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Cancel(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(10 * time.Second); err == nil {
			t.Fatal("cancelled traversal reported success")
		}
	}
	base := runtime.NumGoroutine()
	waitForQuiescence(t, c, base+16)

	// The executor still serves fresh traversals after the evictions.
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run")))
}
