package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"graphtrek/internal/frontier"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/sched"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// accumulator is the engine-side contract behind sched.Accumulator: every
// scheduled item carries one, and finishItems — the single termination
// point — drives its completion protocol. Implementations: execAcc for
// server-side traversal executions, visitAcc for client-mode VisitReq
// batches.
type accumulator interface {
	sched.Accumulator
	// process carries one of the accumulator's items on from match, whether
	// the vertex exists and passed the item's step predicate: a server-side
	// execution expands and dispatches, a client-mode batch collects
	// survivors and expansions for its reply. ex is the calling worker's
	// expansion scratch. now is the worker's last reading of the executor
	// clock (sched.Now), where this item's first phase starts; process
	// returns the last reading it took itself, or now.
	process(s *Server, ts *travelState, ex *expansion, match bool, it sched.Item, now time.Duration) time.Duration
	// fail records a processing failure on whatever error path the
	// accumulator reports through. Called at most once per finishItems call.
	fail(s *Server, ts *travelState, msg string)
	// finished runs the accumulator's completion action after its last item
	// was processed (ItemDone returned true).
	finished(s *Server, ts *travelState)
	// span returns the execution's trace builder, nil when tracing is off.
	// Workers attribute per-item queue wait and merge disposition to it
	// while processing groups; the cache's is counted at admission.
	span() *trace.Builder
}

// execAcc tracks one traversal execution being processed on this server: a
// countdown of its unprocessed frontier entries. Outputs are not owned by
// the execution — they accumulate in the traversal's per-target outboxes so
// consecutive executions batch into few messages — but an execution only
// reports termination after its outputs reached an outbox, and the flusher
// always sends outbox-derived child registrations in the same ExecEvents
// message as the terminations, preserving the ledger invariant (§IV-C):
// every terminated execution's children are registered no later than the
// termination itself.
type execAcc struct {
	id      uint64 // ledger execution id: the ParentExec of what its items dispatch
	pending atomic.Int32
	sp      *trace.Builder // nil when tracing is off
}

// ItemDone marks one entry of the execution processed; the caller must have
// already buffered any outputs.
func (a *execAcc) ItemDone() bool { return a.pending.Add(-1) == 0 }

func (a *execAcc) span() *trace.Builder { return a.sp }

func (a *execAcc) process(s *Server, ts *travelState, ex *expansion, match bool, it sched.Item, now time.Duration) time.Duration {
	return s.processItem(ts, ex, match, it, now)
}

func (a *execAcc) fail(_ *Server, ts *travelState, msg string) {
	a.sp.Fail(msg)
	ts.addErr(msg)
}

// finished puts the execution on the traversal's pending-termination list
// for the next flush and seals its trace span.
func (a *execAcc) finished(s *Server, ts *travelState) {
	ts.addEnded(a.id)
	if a.sp != nil {
		s.trc.RecordSpan(a.sp.Finish())
	}
}

// finishItems is the single termination point for scheduled items: it
// records the failure (if any) once per distinct accumulator and counts each
// item done, running the completion action of accumulators whose last item
// this was.
func (s *Server) finishItems(ts *travelState, items []sched.Item, failure error) {
	if len(items) == 0 {
		return
	}
	var failed map[accumulator]bool
	for _, it := range items {
		acc := it.Exec.(accumulator)
		if failure != nil {
			if failed == nil {
				failed = make(map[accumulator]bool, 1)
			}
			if !failed[acc] {
				failed[acc] = true
				acc.fail(s, ts, failure.Error())
			}
		}
		if acc.ItemDone() {
			acc.finished(s, ts)
		}
	}
}

// outboxSet accumulates one outbox's entries as a set: a traversal
// execution produces a *set* of next-step vertices (§IV-B), so each entry
// is sent to a given target for a given step at most once per traversal —
// the `seen` set survives flushes. Without set semantics the number of
// in-flight entries would track the number of distinct *walks* rather than
// vertices and grow combinatorially with traversal depth; the published
// Async-GT measurements (within ~1.3x of Sync-GT, Table I) are only
// consistent with per-step output sets. Residual redundancy — the same
// vertex arriving from several different sender servers — is exactly what
// the traversal-affiliate cache then removes at the receiver (§V-A).
type outboxSet struct {
	seen frontier.Set
	sent int // the seen set's keys from the sent'th on are the entries pending
	// parent is the causal attribution of the current batch: the exec id of
	// the first execution that contributed to it since the last take. Batches
	// merge the outputs of many executions, so one parent per message is an
	// approximation — the trace DAG documents it as "first contributor wins".
	parent uint64
}

func (o *outboxSet) add(e wire.Entry, parent uint64) bool {
	if !o.seen.Add(e) {
		return false
	}
	if o.pending() == 1 {
		o.parent = parent
	}
	return true
}

func (o *outboxSet) pending() int { return o.seen.Len() - o.sent }

// take drains the pending entries and the batch's parent attribution. The
// seen set keeps its keys in arrival order, so repeats stay suppressed for
// the traversal's lifetime, and the batch is the pending run copied once
// into a slice of exactly its size: the message owns it from here on.
func (o *outboxSet) take() ([]wire.Entry, uint64) {
	list, parent := o.seen.AppendKeys(make([]wire.Entry, 0, o.pending()), o.sent), o.parent
	o.sent, o.parent = o.seen.Len(), 0
	return list, parent
}

// expansion is one worker goroutine's scratch for turning an item's edge scan
// into outbox entries: plain memory the goroutine owns and reuses (a sync.Pool's
// victim cache would tie the live heap to when the last collection ran).
type expansion struct {
	items   []sched.Item     // the group being processed
	dsts    []model.VertexID // destinations of the scan in progress
	collect func(model.VertexID) bool
	full    []outMsg // outboxes that reached BatchSize, sent after unlocking

	// An edge-filtered scan's state: collectIf collects the destinations
	// whose edge value edge accepts, and keeps the first error in scanErr.
	edge      property.Matcher
	scanErr   error
	collectIf func(dst model.VertexID, val []byte) bool

	// The vertex view's state: judge evaluates, on the fetched vertex's
	// bytes, the predicate of each distinct step among items (plan's steps)
	// into verdict, indexed by step. An empty predicate matches without
	// reading the bytes: the view hands over only well-formed values.
	plan    *query.Plan
	verdict []uint8
	judge   func(val []byte) error
}

// Verdicts on a step's predicate.
const (
	unjudged uint8 = iota
	matched
	rejected
)

// outMsg is a message taken from an outbox, bound for target.
type outMsg struct {
	target int
	msg    wire.Message
}

func newExpansion() *expansion {
	ex := &expansion{}
	ex.collect = func(dst model.VertexID) bool {
		ex.dsts = append(ex.dsts, dst)
		return true
	}
	ex.collectIf = func(dst model.VertexID, val []byte) bool {
		ok, err := ex.edge.Match(val)
		if err != nil {
			ex.scanErr = err
			return false
		}
		return !ok || ex.collect(dst)
	}
	ex.judge = func(val []byte) error {
		ex.verdict = append(ex.verdict[:0], make([]uint8, ex.plan.NumSteps())...)
		for _, it := range ex.items {
			if ex.verdict[it.Step] != unjudged {
				continue
			}
			m := ex.plan.VertexMatcher(int(it.Step))
			if m.Empty() {
				ex.verdict[it.Step] = matched
				continue
			}
			ok, err := m.Match(val)
			if err != nil {
				return err
			}
			ex.verdict[it.Step] = rejected
			if ok {
				ex.verdict[it.Step] = matched
			}
		}
		return nil
	}
	return ex
}

// bufferDispatch adds one scan's destinations (ex.dsts), each carrying tag's
// rtn() provenance, to their owners' step outboxes under a single hold of
// flushMu. An outbox is taken the moment an entry brings it to the batch
// threshold, and the batches taken are sent after unlocking. parent is the
// exec id of the execution producing the entries, carried onto the wire as
// the child's ParentExec.
func (s *Server) bufferDispatch(ts *travelState, ex *expansion, parent uint64, step int32, tag wire.Entry) {
	if len(ex.dsts) == 0 {
		return
	}
	ts.flushMu.Lock()
	for _, dst := range ex.dsts {
		target := s.cfg.Part.Owner(dst)
		box := s.outboxLocked(ts, step, target)
		tag.Vertex = dst
		if box.add(tag, parent) && box.pending() >= s.cfg.BatchSize {
			ex.full = append(ex.full, s.takeLocked(ts, box, wire.KindDispatch, step, target))
		}
	}
	ts.flushMu.Unlock()
	// The scratch outlives the traversal: leave no batch pinned.
	for i, om := range ex.full {
		s.sendDispatch(ts, om)
		ex.full[i] = outMsg{}
	}
	ex.full = ex.full[:0]
}

// outboxLocked returns the traversal's outbox for target at step, made on
// first use; the row after the plan's last step holds the rtn() end-of-chain
// signals. A step's frontier is rarely smaller than the one before it, so a
// new outbox starts at the size the previous step's for this target reached.
// Caller holds flushMu.
func (s *Server) outboxLocked(ts *travelState, step int32, target int) *outboxSet {
	if ts.outbox[step] == nil {
		ts.outbox[step] = make([]*outboxSet, s.cfg.Part.N())
	}
	box := ts.outbox[step][target]
	if box == nil {
		box = &outboxSet{}
		if prev := ts.outbox[step-1]; prev != nil && prev[target] != nil {
			box.seen.Reserve(prev[target].seen.Len())
		}
		ts.outbox[step][target] = box
	}
	return box
}

// takeLocked drains box, the traversal's outbox for target at step, into a
// message that creates one execution there. Caller holds flushMu.
func (s *Server) takeLocked(ts *travelState, box *outboxSet, kind wire.Kind, step int32, target int) outMsg {
	entries, parent := box.take()
	return outMsg{target, wire.Message{
		Kind: kind, TravelID: ts.id, Step: step, ExecID: s.newExecID(), ParentExec: parent, Entries: entries,
	}}
}

// ship sends om with the plan attached until the transport has accepted a
// message that carried it to om.target: per-pair FIFO delivers that one ahead
// of any plan-less one, whichever goroutine sends it (DESIGN §8). No sender
// waits on another's send, and a failed send leaves the target untold.
func (s *Server) ship(ts *travelState, om outMsg) error {
	told := &ts.told[om.target]
	if !told.Load() {
		om.msg.Plan, om.msg.Coord, om.msg.Mode = ts.planBytes, ts.coord, uint8(ts.mode)
	}
	err := s.send(om.target, om.msg)
	if err == nil && len(om.msg.Plan) > 0 {
		told.Store(true)
	}
	return err
}

// bufferSig adds an end-of-chain signal for an rtn()-marked ancestor,
// deduplicated per batch. parent attributes the resulting return-signal
// execution to the execution that reached the chain's end.
func (s *Server) bufferSig(ts *travelState, parent uint64, target int, e wire.Entry) {
	ts.flushMu.Lock()
	box := s.outboxLocked(ts, int32(ts.plan.NumSteps()), target)
	box.add(e, parent)
	ts.flushMu.Unlock()
}

// bufferResult appends a returned vertex bound for the coordinator.
func (s *Server) bufferResult(ts *travelState, v model.VertexID) {
	ts.flushMu.Lock()
	ts.results = append(ts.results, v)
	ts.flushMu.Unlock()
}

// sendDispatch registers a freshly created child execution at the
// coordinator and ships its entries. Registration and shipping may happen
// in either order: the ledger tolerates an execution's events arriving
// before its registration (it only declares completion when the created and
// terminated sets coincide). A failed send is recorded as a traversal error
// — the next flush carries it to the coordinator, which fails the
// traversal instead of waiting out the inactivity timeout.
func (s *Server) sendDispatch(ts *travelState, om outMsg) {
	if err := s.report(ts, wire.Message{
		Kind: wire.KindExecEvents, TravelID: ts.id,
		Created: []wire.ExecRef{{ID: om.msg.ExecID, Server: int32(om.target), Step: om.msg.Step}},
	}); err != nil {
		ts.addErr(fmt.Sprintf("core: exec registration to coordinator %d failed: %v", ts.coord, err))
	}
	if err := s.ship(ts, om); err != nil {
		ts.addErr(fmt.Sprintf("core: dispatch to server %d failed: %v", om.target, err))
	}
}

// report delivers a message to the traversal's coordinator: in place when
// this server coordinates the traversal, over the transport otherwise.
func (s *Server) report(ts *travelState, msg wire.Message) error {
	if ts.coord == int32(s.cfg.ID) {
		s.handleCoordinator(msg)
		return nil
	}
	return s.send(int(ts.coord), msg)
}

// flushTravel drains the traversal's outboxes, buffered results and
// pending terminations into messages: one report to the coordinator and one
// message per outbox. Multiple workers may call it concurrently; each call
// atomically swaps out the buffered state, and the calls report to the
// coordinator in the order they swapped.
func (s *Server) flushTravel(ts *travelState) {
	numSteps := int32(ts.plan.NumSteps())
	var msgs []outMsg

	ts.flushMu.Lock()
	for step, row := range ts.outbox {
		kind := wire.KindDispatch
		if step == int(numSteps) {
			kind = wire.KindReturnSig
		}
		for target, box := range row {
			if box != nil && box.pending() > 0 {
				msgs = append(msgs, s.takeLocked(ts, box, kind, int32(step), target))
			}
		}
	}
	results := ts.results
	ended := ts.ended
	errs := ts.errs
	ts.results = nil
	ts.ended = nil
	ts.errs = nil
	if len(msgs) == 0 && len(results) == 0 && len(ended) == 0 && len(errs) == 0 {
		ts.flushMu.Unlock()
		return
	}
	// A later flush's Ended must not overtake an earlier one's results and
	// Created carrying the ended execution's outputs (§IV-C): the reports
	// leave under sendMu, in take order.
	ts.sendMu.Lock()
	ts.flushMu.Unlock()
	created := make([]wire.ExecRef, len(msgs))
	for i, om := range msgs {
		created[i] = wire.ExecRef{ID: om.msg.ExecID, Server: int32(om.target), Step: om.msg.Step}
	}
	// Results, child registrations and terminations make one atomic ledger
	// update; then the children ship.
	var sendErrs []string
	if err := s.report(ts, wire.Message{
		Kind: wire.KindExecEvents, TravelID: ts.id,
		Created: created, Ended: ended, Verts: results, Err: strings.Join(errs, "; "),
	}); err != nil {
		sendErrs = append(sendErrs, fmt.Sprintf("core: exec events to coordinator %d failed: %v", ts.coord, err))
	}
	ts.sendMu.Unlock()
	s.met.Add(metrics.Execs, int64(len(ended)))
	for _, om := range msgs {
		if err := s.ship(ts, om); err != nil {
			sendErrs = append(sendErrs, fmt.Sprintf("core: dispatch to server %d failed: %v", om.target, err))
		}
	}
	// Lost messages mean lost work the ledger is waiting on: surface the
	// failure to the coordinator so the traversal errors out promptly. If
	// even that send fails, the errors stay buffered for the next flush and
	// the coordinator-side failure detector or inactivity timeout takes over.
	if len(sendErrs) > 0 {
		if err := s.report(ts, wire.Message{
			Kind: wire.KindExecEvents, TravelID: ts.id,
			Err: strings.Join(sendErrs, "; "),
		}); err != nil {
			for _, e := range sendErrs {
				ts.addErr(e)
			}
		}
	}
}
