package core

import (
	"sync"
	"testing"
	"time"

	"graphtrek/internal/query"
	"graphtrek/internal/trace"
)

// TestTraceLedgerCrossCheck runs concurrent traversals across every
// server-side engine and validates the span-per-terminated-execution
// invariant: for each cleanly completed traversal, the coordinator's
// TravelSummary reports Created == Ended, and the spans buffered across the
// cluster for that traversal number exactly Created. Trace completeness
// thereby doubles as an independent check of the §IV-C quiescence ledger.
func TestTraceLedgerCrossCheck(t *testing.T) {
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	plans := []*query.Plan{
		mustPlan(t, query.V(1).E("run")),
		mustPlan(t, query.V(1, 2).E("run").E("read")),
		mustPlan(t, query.VLabel("Execution").E("read")),
		mustPlan(t, query.VLabel("User").Rtn().E("run").Rtn().E("read")),
	}
	modes := []Mode{ModeSync, ModeAsyncPlain, ModeGraphTrek, ModeAsyncCacheOnly, ModeAsyncSchedOnly}
	const rounds = 15
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan := plans[i%len(plans)]
			mode := modes[i%len(modes)]
			if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Coordinator: -1, Timeout: 20 * time.Second}); err != nil {
				t.Errorf("traversal %d (%v): %v", i, mode, err)
			}
		}(i)
	}
	wg.Wait()

	var summaries []trace.TravelSummary
	for _, s := range c.servers {
		summaries = append(summaries, s.SpanDump(0).Summaries...)
	}
	if len(summaries) != rounds {
		t.Fatalf("got %d coordinator summaries, want %d", len(summaries), rounds)
	}
	seen := make(map[uint64]bool)
	for _, sum := range summaries {
		if seen[sum.Travel] {
			t.Errorf("travel %d summarized twice", sum.Travel)
		}
		seen[sum.Travel] = true
		if sum.Err != "" {
			t.Errorf("travel %d: unexpected error %q", sum.Travel, sum.Err)
			continue
		}
		if sum.Created != sum.Ended {
			t.Errorf("travel %d: ledger created %d != ended %d", sum.Travel, sum.Created, sum.Ended)
		}
		if sum.Created == 0 {
			t.Errorf("travel %d: no executions registered", sum.Travel)
		}
		if sum.ElapsedNs <= 0 {
			t.Errorf("travel %d: elapsed %d", sum.Travel, sum.ElapsedNs)
		}
		spans := 0
		for _, s := range c.servers {
			spans += len(s.SpanDump(sum.Travel).Spans)
		}
		if spans != sum.Created {
			t.Errorf("travel %d (%s): %d spans buffered, ledger registered %d executions",
				sum.Travel, sum.Mode, spans, sum.Created)
		}
	}
}

// TestTraceDispositionMatchesMetrics checks the per-span attribution
// invariant: summing redundant/combined/real over a server's spans
// reproduces that server's engine counters, so the paper's §VII-A identity
// (redundant + combined + real == received) holds at span granularity too.
func TestTraceDispositionMatchesMetrics(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	plans := []*query.Plan{
		mustPlan(t, query.V(1, 2).E("run").E("read")),
		mustPlan(t, query.VLabel("Execution").E("read")),
	}
	for _, plan := range plans {
		for _, mode := range allModes {
			if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: mode, Timeout: 20 * time.Second}); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	}
	for _, s := range c.servers {
		var red, comb, real, frontier int64
		for _, sp := range s.SpanDump(0).Spans {
			red += int64(sp.Redundant)
			comb += int64(sp.Combined)
			real += int64(sp.Real)
			frontier += int64(sp.Frontier)
			if sp.WallNs < 0 || sp.QueueWaitNs < 0 {
				t.Errorf("server %d: negative timing in span %+v", s.ID(), sp)
			}
		}
		snap := s.Metrics()
		if red != snap.Redundant || comb != snap.Combined || real != snap.RealIO {
			t.Errorf("server %d: span dispositions (red=%d comb=%d real=%d) != counters (red=%d comb=%d real=%d)",
				s.ID(), red, comb, real, snap.Redundant, snap.Combined, snap.RealIO)
		}
		// Frontier covers every enqueued item plus the instant (never
		// enqueued) executions, so it dominates the received counter.
		if frontier < snap.Received {
			t.Errorf("server %d: span frontier sum %d < received %d", s.ID(), frontier, snap.Received)
		}
		if snap.SpansRecorded == 0 || snap.SpansBuffered == 0 {
			t.Errorf("server %d: no spans recorded: %d recorded, %d buffered", s.ID(), snap.SpansRecorded, snap.SpansBuffered)
		}
	}
}

// TestHandleProfile pins the profile's definition: the client aggregates
// the span dumps it pulls, and the rows must equal trace.Aggregate run on
// each server over its own span dump — what a server-side aggregate would
// have answered, (step, server) row for row.
func TestHandleProfile(t *testing.T) {
	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.V(1, 2).E("run").E("read"))
	h, err := c.client.SubmitPlanAsync(plan, SubmitOptions{Mode: ModeGraphTrek})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := h.Profile(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("profile returned no rows")
	}
	var want []trace.StepStat
	for _, s := range c.servers {
		want = append(want, trace.Aggregate(s.SpanDump(h.TravelID()).Spans)...)
	}
	trace.Sort(want)
	if len(stats) != len(want) {
		t.Fatalf("profile rows = %d, want %d", len(stats), len(want))
	}
	var execs int
	for i, st := range stats {
		if st != want[i] {
			t.Errorf("row %d: got %+v want %+v", i, st, want[i])
		}
		execs += st.Execs
	}
	// The profiled execution count matches the coordinator's ledger totals.
	sums := c.servers[h.Coordinator()].SpanDump(h.TravelID()).Summaries
	if len(sums) != 1 {
		t.Fatalf("%d coordinator summaries for profiled traversal, want 1", len(sums))
	}
	sum := sums[0]
	if execs != sum.Created {
		t.Errorf("profiled execs %d != ledger created %d", execs, sum.Created)
	}
	merged := trace.MergeSteps(stats)
	var mergedExecs int
	for _, st := range merged {
		if st.Server != -1 {
			t.Errorf("merged row has server %d, want -1", st.Server)
		}
		mergedExecs += st.Execs
	}
	if mergedExecs != execs {
		t.Errorf("merged execs %d != per-server execs %d", mergedExecs, execs)
	}
}

// TestTraceDisabled pins the opt-out: TraceCap < 0 turns the recorder off
// entirely and the span dump and the trace rows degrade to empty while
// traversals stay correct.
func TestTraceDisabled(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.TraceCap = -1 })
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1).E("run").E("read")))
	for _, s := range c.servers {
		d := s.SpanDump(0)
		if len(d.Spans) != 0 {
			t.Errorf("server %d: %d spans with tracing disabled", s.ID(), len(d.Spans))
		}
		if len(d.Summaries) != 0 {
			t.Errorf("server %d: %d summaries with tracing disabled", s.ID(), len(d.Summaries))
		}
		if got := s.SpanDump(1).Summaries; len(got) != 0 {
			t.Errorf("server %d: summary lookup succeeded with tracing disabled", s.ID())
		}
		if m := s.Metrics(); m.SpansRecorded != 0 || m.SpansBuffered != 0 || m.TraceSummaries != 0 {
			t.Errorf("server %d: trace rows nonzero with tracing disabled: %d/%d/%d", s.ID(), m.SpansRecorded, m.SpansBuffered, m.TraceSummaries)
		}
	}
}

// TestTraceQueueWaitObserved checks wait attribution end to end: items
// spend measurable time queued behind a slow disk on a single worker, and
// the resulting spans carry a positive queue wait.
func TestTraceQueueWaitObserved(t *testing.T) {
	c := newCluster(t, 1, func(cfg *Config) { cfg.Workers = 1 })
	loadAuditGraph(t, c)
	if _, err := c.client.SubmitPlan(
		mustPlan(t, query.VLabel("User").E("run").E("read")),
		SubmitOptions{Mode: ModeGraphTrek, Timeout: 20 * time.Second},
	); err != nil {
		t.Fatal(err)
	}
	var sawWait bool
	for _, sp := range c.servers[0].SpanDump(0).Spans {
		if sp.QueueWaitNs > 0 {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("no span observed a positive queue wait")
	}
}

// stepComputeNs is the sum of a server's step-compute histogram: the pop to
// last-phase-boundary time of every group its workers served.
func stepComputeNs(t *testing.T, s *Server) int64 {
	t.Helper()
	for _, h := range s.Histograms() {
		if h.Name == "step_compute_seconds" {
			return h.Hist.Sum
		}
	}
	t.Fatal("no step_compute_seconds histogram")
	return 0
}

// TestSpanPhasesTileStepCompute: a span's fetch and scan phases are
// consecutive intervals between readings of one clock, inside the
// step-compute interval of the group they ran in, so they can never add up
// to more than it — exactly for a traversal of one group, and in sum per
// server over every engine.
func TestSpanPhasesTileStepCompute(t *testing.T) {
	phases := func(sp trace.Span) int64 {
		if sp.DispatchNs > sp.ScanNs {
			t.Errorf("span %d: DispatchNs %d exceeds ScanNs %d", sp.Exec, sp.DispatchNs, sp.ScanNs)
		}
		return sp.FetchNs + sp.ScanNs
	}

	one := newCluster(t, 1, nil)
	loadAuditGraph(t, one)
	if _, err := one.client.SubmitPlan(mustPlan(t, query.V(1)), SubmitOptions{Mode: ModeGraphTrek, Timeout: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	spans := one.servers[0].SpanDump(0).Spans
	if len(spans) != 1 || spans[0].Real != 1 {
		t.Fatalf("spans of a one-vertex traversal = %+v, want one span of one real access", spans)
	}
	if got, whole := phases(spans[0]), stepComputeNs(t, one.servers[0]); got == 0 || got > whole || whole > spans[0].WallNs {
		t.Errorf("one group: phases sum to %d ns, its step-compute time is %d, the span's wall time %d",
			got, whole, spans[0].WallNs)
	}

	c := newCluster(t, 3, nil)
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.V(1, 2).E("run").E("read")))
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run").E("hasExecutions").E("read")))
	var total int64
	for _, s := range c.servers {
		var sum int64
		for _, sp := range s.SpanDump(0).Spans {
			sum += phases(sp)
		}
		if whole := stepComputeNs(t, s); sum > whole {
			t.Errorf("server %d: span phases sum to %d ns, step-compute time to %d", s.ID(), sum, whole)
		}
		total += sum
	}
	if total == 0 {
		t.Error("no span timed a phase")
	}
}

// TestNoDiskNoSharedState: servers built without a simulated disk have none
// at all — not one process-wide device whose mutex and touched-block set
// every worker of every server would share.
func TestNoDiskNoSharedState(t *testing.T) {
	c := newCluster(t, 2, nil)
	for _, s := range c.servers {
		if s.disk != nil {
			t.Errorf("server %d was given a disk nobody configured", s.ID())
		}
	}
	loadAuditGraph(t, c)
	c.runAllModes(t, mustPlan(t, query.VLabel("User").E("run").E("read")))
}
