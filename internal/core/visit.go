package core

import (
	"time"

	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/sched"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// spanOf resolves the trace builder behind a scheduled item; nil (all
// methods no-ops) when tracing is disabled.
func spanOf(it sched.Item) *trace.Builder { return it.Exec.(accumulator).span() }

// processGroup serves one scheduler group: every pending request for one
// vertex of one traversal. This is the server's unit of work from §IV-B —
// fetch the vertex, apply the step's vertex filters, iterate the next
// step's typed edges, and buffer dispatches to the owners of the new
// frontier — with execution merging (§V-B): all requests in the group share
// one disk access. The affiliate cache dropped the redundant requests before
// they were queued (Server.startExec).
//
// Every phase boundary is one reading of the executor clock, shared by the
// phases on either side: fetch end is the first item's scan start, an item's
// end is the next item's start. The last reading is returned
// (g.Popped when none was taken) and closes the group's step-compute interval.
func (s *Server) processGroup(ts *travelState, g sched.Group, ex *expansion) time.Duration {
	// The scheduler stamped the pop time; reusing it keeps span-level wait
	// attribution consistent with the server's queue-wait metric.
	now := g.Popped
	items := ex.items
	for _, it := range items {
		spanOf(it).ObserveWait(now - it.Enqueued)
	}
	s.met.Add(metrics.RealIO, 1)
	s.met.Add(metrics.Combined, int64(len(items)-1))
	// The first entry pays the (merged) storage access; the rest ride
	// along — the same attribution the server counters use, so per-span
	// dispositions sum to the server totals.
	spanOf(items[0]).AddReal(1)
	for _, it := range items[1:] {
		spanOf(it).AddCombined(1)
	}

	// One (simulated) disk access serves the whole merged group: the
	// vertex's read and each step's typed edge scan. In the store these are
	// separate key ranges, a point read plus a seek per overlapping table
	// (gstore's package doc). The fetch phase is attributed to the span
	// paying the access, like the real-IO counter.
	headSp := spanOf(items[0])
	if headSp != nil {
		now = sched.Now()
	}
	s.disk.Access(int(items[0].Step), uint64(g.Vertex))
	// The fetch is a view of the vertex's bytes, and each distinct step among
	// the items has its predicate judged on them there (ex.judge).
	ex.plan = ts.plan
	found, err := s.cfg.Store.ViewVertex(g.Vertex, ex.judge)
	ex.plan = nil // the scratch outlives the traversal
	if headSp != nil {
		fetched := sched.Now()
		headSp.AddFetch(fetched - now)
		now = fetched
	}
	if err != nil {
		s.finishItems(ts, items, err)
		return now
	}
	for _, it := range items {
		match := found && ex.verdict[it.Step] == matched
		now = it.Exec.(accumulator).process(s, ts, ex, match, it, now)
	}
	s.finishItems(ts, items, nil)
	return now
}

// processItem carries one request on from the vertex's verdict on its
// step's predicate. Its scan phase starts at now, the caller's last clock
// reading; it returns its own last reading (now itself with tracing off).
func (s *Server) processItem(ts *travelState, ex *expansion, match bool, it sched.Item, now time.Duration) time.Duration {
	plan := ts.plan
	last := int32(plan.NumSteps() - 1)
	exec := it.Exec.(*execAcc).id
	sp := spanOf(it)
	if !match {
		return now // the path dies here
	}

	anc, ancStep, dest := it.Anc, it.AncStep, it.Dest
	if plan.Returned(int(it.Step)) {
		if it.Step == last {
			// Final step marked (explicitly, or implicitly when the plan
			// has no rtn()): the vertex itself is a result, and its own
			// ancestor — if any — just saw a path reach the end.
			s.bufferResult(ts, it.Vertex)
		} else {
			// Intermediate rtn(): this server becomes the reporting
			// destination for everything downstream of this vertex
			// (Fig 4), and remembers how to propagate success upstream.
			s.recordRtn(ts, exec, it.Vertex, it.Step, anc, ancStep, dest)
			anc, ancStep, dest = it.Vertex, it.Step, int32(s.cfg.ID)
		}
	}
	if it.Step == last {
		if it.Dest >= 0 {
			// Signal the previous rtn level that a path survived.
			s.bufferSig(ts, exec, int(it.Dest), wire.Entry{Vertex: it.Anc, AncStep: it.AncStep})
		}
		return now
	}

	// Expand the next step's typed edges: the scan collects the destinations,
	// then one outbox pass hands them to their owners. The scan interval opens
	// at now; dispatch time (that pass, possibly with early batch sends) is
	// its tail and ends on the same clock read, so the two phases report
	// separably.
	var dispatchStart time.Duration
	err := s.expand(ex, plan, it.Step+1, it.Vertex)
	if sp != nil {
		dispatchStart = sched.Now()
	}
	s.bufferDispatch(ts, ex, exec, it.Step+1, wire.Entry{Anc: anc, AncStep: ancStep, Dest: dest})
	if sp != nil {
		end := sched.Now()
		sp.AddScan(end - now)
		sp.AddDispatch(end - dispatchStart)
		now = end
	}
	if err != nil {
		ts.addErr(err.Error())
	}
	return now
}

// expand collects into ex.dsts the destinations step's edges lead to from
// src. With no edge predicate that is the packed adjacency run — ids straight
// from the key bytes, or the read cache — and otherwise the edge values,
// filtered where they lie by the step's compiled matcher.
func (s *Server) expand(ex *expansion, plan *query.Plan, step int32, src model.VertexID) error {
	ex.dsts = ex.dsts[:0]
	next := plan.Steps[step]
	if len(next.EdgeFilters) == 0 {
		return s.cfg.Store.ScanEdgeIDs(src, next.EdgeLabel, ex.collect)
	}
	ex.edge, ex.scanErr = plan.EdgeMatcher(int(step)), nil
	err := s.cfg.Store.ScanEdgeValues(src, next.EdgeLabel, ex.collectIf)
	ex.edge = property.Matcher{} // the scratch outlives the traversal
	if err != nil {
		return err
	}
	return ex.scanErr
}

// recordRtn notes that vertex (marked at step) is awaiting an end-of-chain
// signal, remembering the upstream reference to notify when it arrives. If
// the vertex already received its signal via an earlier path, the new
// upstream learns of the success immediately.
func (s *Server) recordRtn(ts *travelState, exec uint64, v model.VertexID, step int32, anc model.VertexID, ancStep, dest int32) {
	up := upRef{anc: anc, ancStep: ancStep, dest: dest}
	ts.rtnMu.Lock()
	rec, ok := ts.rtn[rtnKey{v, step}]
	if !ok {
		rec = &rtnRec{}
		ts.rtn[rtnKey{v, step}] = rec
	}
	if rec.returned {
		ts.rtnMu.Unlock()
		s.notifyUp(ts, exec, up)
		return
	}
	for _, u := range rec.ups {
		if u == up {
			ts.rtnMu.Unlock()
			return
		}
	}
	rec.ups = append(rec.ups, up)
	ts.rtnMu.Unlock()
}

// notifyUp propagates an end-of-chain success one rtn level upstream.
// parent is the execution observing the success, attributed to the
// resulting signal batch.
func (s *Server) notifyUp(ts *travelState, parent uint64, up upRef) {
	if up.dest >= 0 {
		s.bufferSig(ts, parent, int(up.dest), wire.Entry{Vertex: up.anc, AncStep: up.ancStep})
	}
}

// handleReturnSig processes an end-of-chain signal batch (§IV-D): each
// signalled vertex is returned to the coordinator exactly once, and the
// success continues to ripple upstream through earlier rtn levels. Signals
// are lightweight bookkeeping — no disk access — so they run inline on the
// transport's dispatch goroutine as their own traversal execution.
func (s *Server) handleReturnSig(_ int, msg wire.Message, ts *travelState) {
	for _, e := range msg.Entries {
		ts.rtnMu.Lock()
		rec, ok := ts.rtn[rtnKey{e.Vertex, e.AncStep}]
		if !ok || rec.returned {
			ts.rtnMu.Unlock()
			continue
		}
		rec.returned = true
		ups := rec.ups
		rec.ups = nil
		ts.rtnMu.Unlock()
		s.bufferResult(ts, e.Vertex)
		for _, up := range ups {
			s.notifyUp(ts, msg.ExecID, up)
		}
	}
	s.endUnqueued(ts, &execAcc{id: msg.ExecID, sp: s.beginSpan(ts.id, msg.ExecID, msg.ParentExec, msg.Step, len(msg.Entries))}, "")
}
