package core

import (
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/sched"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// visitAcc accumulates one client-mode VisitReq batch's response while its
// entries flow through the shared executor like any other traversal work —
// client-driven traversals compete under the same fair-share policy and
// admission control as the server-side engines. The response ships back to
// the client when the last entry completes.
type visitAcc struct {
	pending atomic.Int32
	from    int
	sp      *trace.Builder // nil when tracing is off

	mu   sync.Mutex
	resp wire.Message
}

func (a *visitAcc) ItemDone() bool { return a.pending.Add(-1) == 0 }

func (a *visitAcc) span() *trace.Builder { return a.sp }

func (a *visitAcc) process(s *Server, ts *travelState, ex *expansion, match bool, it sched.Item, now time.Duration) time.Duration {
	s.processVisitItem(ts, ex, match, it)
	return now
}

// fail records the first error on the response; the client treats a
// response error as fatal for the whole traversal attempt.
func (a *visitAcc) fail(_ *Server, _ *travelState, msg string) {
	a.sp.Fail(msg)
	a.mu.Lock()
	if a.resp.Err == "" {
		a.resp.Err = msg
	}
	a.mu.Unlock()
}

func (a *visitAcc) finished(s *Server, _ *travelState) {
	a.mu.Lock()
	resp := a.resp
	a.mu.Unlock()
	if a.sp != nil {
		s.trc.RecordSpan(a.sp.Finish())
	}
	s.send(a.from, resp)
}

// handleVisitReq serves one client-side traversal request (Fig 2a): the
// client asks this server to evaluate one step for the given candidate
// vertices and ship everything — survivors and expansions — straight back.
// There is no caching, no merging and no forwarding: every intermediate
// result crosses the client-server link, which is exactly the design the
// server-side engines exist to avoid. The per-vertex work itself runs on
// the shared executor pool; only the lightweight seed scan stays inline.
func (s *Server) handleVisitReq(from int, msg wire.Message, ts *travelState) {
	resp := wire.Message{Kind: wire.KindVisitResp, TravelID: msg.TravelID, ReqID: msg.ReqID}
	if msg.Mode == 1 {
		// Seed selection: return the local step-0 candidate ids, via index
		// pushdown when one covers a step-0 filter (same path as the
		// server-side engines).
		ids, err := s.selectSeeds(ts.plan.Steps[0])
		if err != nil {
			resp.Err = err.Error()
		}
		resp.Verts = append(resp.Verts, ids...)
		s.send(from, resp)
		return
	}

	if len(msg.Entries) == 0 {
		s.send(from, resp)
		return
	}
	// Client-mode batches get spans too (Exec = the request id) for
	// observability; they are not ledger executions, so the coordinator
	// cross-check ignores them. The client chains ParentExec across steps,
	// so even client-driven traversals assemble into a causal DAG.
	acc := &visitAcc{from: from, resp: resp,
		sp: s.beginSpan(ts.id, msg.ReqID, msg.ParentExec, msg.Step, len(msg.Entries))}
	acc.pending.Store(int32(len(msg.Entries)))
	// Only Vertex is read of a client-mode entry: no cache, no merging, no rtn.
	if err := s.enqueue(ts, msg.Step, acc, msg.Entries, nil, len(msg.Entries)); err != nil {
		// A refused batch (refused whole) ends here: one reply carrying the
		// error, and its span recorded as failed.
		acc.fail(s, ts, s.admissionError(err))
		acc.finished(s, ts)
	}
}

// processVisitItem carries one client-mode entry on from the vertex's
// verdict, accumulating the surviving vertex and its next-step expansions
// into the batch response.
func (s *Server) processVisitItem(ts *travelState, ex *expansion, match bool, it sched.Item) {
	acc := it.Exec.(*visitAcc)
	plan := ts.plan
	last := int32(plan.NumSteps() - 1)
	if !match {
		return
	}
	acc.mu.Lock()
	acc.resp.Verts = append(acc.resp.Verts, it.Vertex)
	acc.mu.Unlock()
	if it.Step == last {
		return
	}
	err := s.expand(ex, plan, it.Step+1, it.Vertex)
	acc.mu.Lock()
	for _, dst := range ex.dsts {
		// Anc carries the surviving source so the client can reconstruct
		// the hop graph for rtn() liveness.
		acc.resp.Entries = append(acc.resp.Entries, wire.Entry{Vertex: dst, Anc: it.Vertex})
	}
	acc.mu.Unlock()
	if err != nil {
		acc.fail(s, ts, err.Error())
	}
}
