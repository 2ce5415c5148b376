package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/cache"
	"graphtrek/internal/events"
	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/repl"
	"graphtrek/internal/sched"
	"graphtrek/internal/simio"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// Server is one backend traversal-engine instance, colocated with one
// storage partition. Wire it to a transport by passing Server.Handle as the
// transport's handler and calling Bind.
type Server struct {
	cfg   Config
	tr    transport
	disk  *simio.Disk // nil without Config.Disk: accesses are free
	met   metrics.Server
	cache *cache.Cache
	// exec is the shared executor queue: one two-level scheduler multiplexing
	// every concurrent traversal over the server's single worker pool.
	exec *sched.Multi
	// trc ring-buffers a span per terminated traversal execution, plus
	// coordinator travel summaries. Nil when Config.TraceCap is negative.
	trc *trace.Recorder
	// journal ring-buffers the last journalCap typed control-plane events
	// (suspicions, promotions, handoffs — see internal/events).
	journal *events.Journal
	// calls carries the requests this server itself originates (the
	// slow-traversal capture's span pulls); stop fails them at shutdown.
	calls callTable

	mu      sync.Mutex
	travels map[uint64]*travelState
	ledgers map[uint64]*ledger
	// slowMu guards the bounded ring of captured slow-traversal DAGs.
	slowMu   sync.Mutex
	slowDAGs []*trace.DAG
	// doneTravels remembers recently finished traversals so that a late
	// message neither registers one again nor counts as an orphan.
	doneTravels map[uint64]bool
	doneOrder   []uint64
	closed      bool

	// Failure-detector state: per-backend liveness timestamps (unix
	// nanos) and suspicion flags, indexed by server id. Allocated even
	// when heartbeats are disabled so suspicion checks are always safe
	// (and always false). nextBeat is the next heartbeat's due time; only
	// tick touches it.
	lastSeen  []atomic.Int64
	suspected []atomic.Bool
	nextBeat  time.Time
	// stop is closed when Close begins: the control loop and pending
	// requests (calls) watch it.
	stop chan struct{}

	// Replication state (repl.go): one protocol machine per partition, all
	// stepped under one mutex because transport handlers, the failure
	// detector and timers reach them. Nil when Config.Route is nil.
	replMu sync.Mutex
	repl   []*repl.Machine

	execSeq atomic.Uint64
	// wg counts the goroutines spawn and after started; Close waits for it.
	wg sync.WaitGroup
}

const doneHistory = 4096

// journalCap bounds the event journal (the last journalCap events).
const journalCap = 256

// NewServer creates a server. Bind must be called with the transport before
// any message can be sent or received.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var trc *trace.Recorder
	if cfg.TraceCap > 0 {
		trc = trace.NewRecorder(cfg.TraceCap)
	}
	s := &Server{
		cfg:         cfg,
		disk:        cfg.Disk,
		cache:       cache.New(cfg.CacheCap),
		journal:     events.NewJournal(cfg.ID, journalCap),
		exec:        sched.NewMulti(cfg.MaxQueueDepth),
		trc:         trc,
		travels:     make(map[uint64]*travelState),
		ledgers:     make(map[uint64]*ledger),
		doneTravels: make(map[uint64]bool),
		lastSeen:    make([]atomic.Int64, cfg.Part.N()),
		suspected:   make([]atomic.Bool, cfg.Part.N()),
		stop:        make(chan struct{}),
	}
	s.calls.send, s.calls.stop = s.send, s.stop
	s.newRepl()
	return s
}

// Bind attaches the transport and starts the server's worker pool — exactly
// Workers goroutines for the server's lifetime, independent of how many
// traversals are in flight. It must be called exactly once, before the
// transport starts delivering messages. Bind also starts the control loop
// (control.go) unless both HeartbeatInterval and TravelTimeout are off.
func (s *Server) Bind(tr transport) {
	s.tr = tr
	for i := 0; i < s.cfg.Workers; i++ {
		s.spawn(s.worker)
	}
	s.startControl()
	// Boot route announcement: offer our table to every node. On a fresh
	// cluster everyone holds the identical epoch-1 table and this is a
	// no-op; on a restart after a failover it is what fences us — any peer
	// holding a newer assignment replies with it (anti-entropy in
	// handleRouteUpdate), demoting a stale ex-primary within one round
	// trip even on an otherwise quiet cluster.
	if s.cfg.Route != nil {
		s.gossipRoute(s.cfg.Route.Table())
	}
}

// worker is one lane of the shared executor pool: it drains the two-level
// queue, serving whichever traversal the fair-share policy selects. Each
// group comes with its traversal's state, so a worker takes no server lock.
func (s *Server) worker() {
	ex := newExpansion()
	for {
		g, ok := s.exec.Pop()
		if !ok {
			return
		}
		ts := g.Owner().(*travelState)
		// Popped is stamped by the scheduler's pop, so the metric and the
		// span-level wait attribution downstream share one clock read.
		s.met.AddQueueWait(g.Popped - g.Enqueued)
		ex.items = g.Items(ex.items[:0])
		end := s.processGroup(ts, g, ex)
		clear(ex.items) // the scratch outlives the traversal: pin no execution
		if end == g.Popped {
			end = sched.Now() // no phase was timed: tracing is off
		}
		// One compute sample per popped group, so the step-compute
		// histogram's _count stays pinned to queue_groups_total.
		s.met.ObserveStepCompute(end - g.Popped)
		s.maybeFlush(ts, g.Len())
	}
}

// maybeFlush reports n of the traversal's popped items done and flushes its
// outboxes if that left it locally quiescent (sched.Multi.Done), so each
// server's step output consolidates into about one batch per target.
// Flushing on every transient queue drain would fragment it into small
// batches whose re-processing compounds step over step; consolidation keeps
// the plain-async engine's redundant visits at the levels of the paper's
// Fig 7 and Table I. With FlushLinger configured the flush is deferred on a
// timer (never on a shared worker: a sleeping worker would stall other
// traversals) so waves of in-flight batches consolidate.
func (s *Server) maybeFlush(ts *travelState, n int) {
	if !s.exec.Done(ts.id, n) {
		return
	}
	if s.cfg.FlushLinger <= 0 {
		s.flushTravel(ts)
		return
	}
	if !ts.flushPending.CompareAndSwap(false, true) {
		return // a deferred flush is already scheduled
	}
	s.after(s.cfg.FlushLinger, func() {
		ts.flushPending.Store(false)
		if s.exec.Done(ts.id, 0) {
			s.flushTravel(ts)
		}
	})
}

// enqueue admits a request batch — entries, all at step, on behalf of acc —
// into the shared executor, enforcing MaxQueueDepth. The executor keeps
// entries as they are, without copying and without writing to them, and
// skips those marked in skip (nil skips none), which leaves live of them; a
// batch with none live is not pushed. On ErrBackpressure the whole batch was
// refused and the caller must surface it on the traversal's error path so
// the client can retry; admitted batches update the received counter and
// the depth gauge.
func (s *Server) enqueue(ts *travelState, step int32, acc accumulator, entries []wire.Entry, skip []bool, live int) error {
	if live > 0 {
		depth, err := s.exec.PushBatch(ts.id, step, acc, entries, skip, live)
		if err != nil {
			s.met.Add(metrics.Rejected, 1)
			// Bursts coalesce into one journal entry with a growing count.
			s.journal.Record(events.Event{Type: events.Backpressure, Part: -1, Peer: -1,
				Detail: fmt.Sprintf("executor queue full, batch of %d refused", len(entries))})
			return err
		}
		s.met.ObserveQueueDepth(int64(depth))
	}
	s.met.Add(metrics.Received, int64(len(entries)))
	return nil
}

// admissionError formats an executor rejection as a retryable traversal
// error.
func (s *Server) admissionError(err error) string {
	return fmt.Sprintf("core: server %d rejected traversal work, retry later: %v", s.cfg.ID, err)
}

// ID returns the server's node id.
func (s *Server) ID() int { return s.cfg.ID }

// Metrics returns a snapshot of this server's engine counters. Its process
// rows (heap, GC) read 0: they are process-wide, and /metrics reads them from
// the runtime once per scrape.
func (s *Server) Metrics() Metrics {
	m := s.met.Snapshot()
	// The storage layer owns the read-cache counters; overlay them so one
	// snapshot carries the whole read path.
	if cs, ok := s.cfg.Store.(gstore.CacheStatter); ok {
		st := cs.CacheStats()
		m.VtxCacheHits = st.VtxHits
		m.VtxCacheMisses = st.VtxMisses
		m.AdjCacheHits = st.AdjHits
		m.AdjCacheMisses = st.AdjMisses
	}
	// The trace layer owns the span-eviction counter; overlay it the same
	// way so DAG assemblers can tell wrapped rings from tracing bugs.
	m.SpansDropped = int64(s.trc.Stats().SpansEvicted)
	// The affiliate cache owns its eviction counter.
	m.CacheEvictions = s.cache.Evictions()
	return m
}

// QueueLen reports the shared executor's current buffered item count.
func (s *Server) QueueLen() int { return s.exec.Len() }

// QueueHighWater reports the executor queue's depth high-water mark.
func (s *Server) QueueHighWater() int { return s.exec.HighWater() }

// TraceSpans returns this server's buffered execution spans for one
// traversal (travel == 0: all traversals), oldest first. Empty when
// tracing is disabled.
func (s *Server) TraceSpans(travel uint64) []trace.Span { return s.trc.Spans(travel) }

// TraceSummaries returns the travel summaries of traversals this server
// coordinated, oldest first.
func (s *Server) TraceSummaries() []trace.TravelSummary { return s.trc.Summaries() }

// TraceSummary returns the coordinator summary for one traversal, if this
// server coordinated it and the record is still buffered.
func (s *Server) TraceSummary(travel uint64) (trace.TravelSummary, bool) {
	return s.trc.Summary(travel)
}

// TraceStats reports the trace ring's buffering counters.
func (s *Server) TraceStats() trace.RingStats { return s.trc.Stats() }

// beginSpan starts a span for an execution of `frontier` entries on this
// server; nil (recorded nowhere, all methods no-ops) when tracing is off.
// parent is the exec id of the dispatching execution (zero for roots).
func (s *Server) beginSpan(travel, exec, parent uint64, step int32, frontier int) *trace.Builder {
	if s.trc == nil {
		return nil
	}
	return trace.Begin(travel, exec, parent, int32(s.cfg.ID), step, frontier)
}

// endUnqueued ends an execution that never enters the executor — a seed
// scan that found nothing or failed, an empty or misrouted dispatch, a
// return-signal batch, or a batch admission refused — with its span (nil
// when tracing is off) and, when errMsg is set, a retryable error. Keeping
// its span in the ring preserves the span-per-terminated-execution
// invariant the ledger cross-check relies on.
func (s *Server) endUnqueued(ts *travelState, acc *execAcc, errMsg string) {
	if errMsg != "" {
		acc.fail(s, ts, errMsg)
	}
	acc.finished(s, ts)
	s.flushTravel(ts)
}

// Close stops the worker pool, releases every in-flight traversal's state
// and waits for the server's goroutines. The transport is owned by the
// caller and closed separately.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for id := range s.travels {
		s.dropTravelLocked(id)
	}
	s.mu.Unlock()
	close(s.stop)
	s.exec.Close()
	s.wg.Wait()
}

// spawn runs fn on a goroutine that Close waits for, unless Close has
// begun.
func (s *Server) spawn(fn func()) {
	if s.enter() {
		go func() {
			defer s.wg.Done()
			fn()
		}()
	}
}

// after runs fn once d has passed, unless Close has begun by then; Close
// waits for a callback that is running.
func (s *Server) after(d time.Duration, fn func()) {
	time.AfterFunc(d, func() {
		if s.enter() {
			defer s.wg.Done()
			fn()
		}
	})
}

// enter counts one more goroutine for Close to wait for, and reports false
// once Close has begun. Under s.mu, so no count is added after Close's
// wait has started.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// ObserveReconnect records a transport-level peer reconnection in this
// server's metrics; wire it to rpc.TCPOptions.OnReconnect.
func (s *Server) ObserveReconnect(int) { s.met.Add(metrics.Reconnects, 1) }

// ObserveSendFailure records a transport-level frame loss in this server's
// metrics; wire it to rpc.TCPOptions.OnSendFailure.
func (s *Server) ObserveSendFailure(int) { s.met.Add(metrics.MsgsFailed, 1) }

// travelState is the per-traversal state a backend server keeps. Its
// requests live in the server's shared executor queue, keyed by id.
type travelState struct {
	id        uint64
	plan      *query.Plan
	planBytes []byte // plan as it arrived, encoded
	mode      Mode
	tun       tuning
	coord     int32

	// flushMu guards the outboxes, buffered results and ended executions.
	// sendMu, taken before a flush releases flushMu and held through its
	// report to the coordinator, makes flushes report in take order. On the
	// coordinator the report is handled in place, so the lock order is
	// flushMu → sendMu → ledger.mu → Server.mu.
	flushMu sync.Mutex
	sendMu  sync.Mutex
	outbox  [][]*outboxSet // dispatch entry sets, [step][target]; see outboxLocked
	results []model.VertexID
	errs    []string
	ended   []uint64

	// told[target]: the transport accepted a message to target that carried
	// planBytes, so later ones need not (ship).
	told []atomic.Bool

	// rtnMu guards the rtn() pending table (§IV-D).
	rtnMu sync.Mutex
	rtn   map[rtnKey]*rtnRec

	// flushPending guards against stacking more than one deferred
	// FlushLinger flush timer per traversal.
	flushPending atomic.Bool
	// seeded: this server ran the seed execution a StartTravel carried.
	seeded atomic.Bool
}

type rtnKey struct {
	vertex model.VertexID
	step   int32
}

// rtnRec tracks one rtn()-marked vertex awaiting an end-of-chain signal.
type rtnRec struct {
	returned bool
	ups      []upRef
}

type upRef struct {
	anc     model.VertexID
	ancStep int32
	dest    int32
}

// newExecID mints a traversal-execution id unique across the cluster:
// high bits identify the creating server.
func (s *Server) newExecID() uint64 {
	return uint64(s.cfg.ID+1)<<48 | s.execSeq.Add(1)
}

// Handle is the transport handler. It is safe for concurrent invocation.
func (s *Server) Handle(from int, msg wire.Message) {
	s.noteAlive(from)
	switch msg.Kind {
	case wire.KindStartTravel:
		s.handleStartTravel(from, msg)
	case wire.KindDispatch:
		s.withTravel(from, msg, s.handleDispatch)
	case wire.KindReturnSig:
		s.withTravel(from, msg, s.handleReturnSig)
	case wire.KindStepGo:
		s.withTravel(from, msg, func(_ int, m wire.Message, ts *travelState) {
			s.exec.Release(ts.id, m.Step)
		})
	case wire.KindTravelDone:
		s.handleTravelDone(msg)
	case wire.KindVisitReq:
		s.withTravel(from, msg, s.handleVisitReq)
	case wire.KindProgressReq:
		s.handleProgressReq(from, msg)
	case wire.KindCancel:
		s.handleCancel(msg)
	case wire.KindExecEvents:
		s.handleCoordinator(msg)
	case wire.KindHeartbeat:
		// Liveness already noted above; heartbeats carry nothing else.
	case wire.KindPeerDown:
		s.handlePeerDown(from, msg)
	case wire.KindIntrospectReq:
		s.handleIntrospectReq(from, msg)
	case wire.KindIntrospectResp:
		s.calls.resolve(msg)
	case wire.KindWriteReq:
		s.handleWriteReq(from, msg)
	case wire.KindReplAppend:
		s.handleRepl(from, msg, appendEvents)
	case wire.KindReplAck:
		s.handleRepl(from, msg, ackEvents)
	case wire.KindSnapshot:
		s.handleRepl(from, msg, snapEvents)
	case wire.KindRouteUpdate:
		s.handleRouteUpdate(from, msg)
	}
}

// withTravel runs fn on the state of msg's traversal, if registerTravel
// finds or makes one.
func (s *Server) withTravel(from int, msg wire.Message, fn func(int, wire.Message, *travelState)) {
	if ts, _ := s.registerTravel(from, msg); ts != nil {
		fn(from, msg, ts)
	}
}

// handleStartTravel registers a traversal from a StartTravel. From a client
// node (id >= Part.N()) it makes this server the coordinator. From the
// coordinator it may carry this server's seed execution, which runs once,
// even where a peer's dispatch carrying the plan registered the traversal.
func (s *Server) handleStartTravel(from int, msg wire.Message) {
	ts, fresh := s.registerTravel(from, msg)
	switch {
	case ts == nil:
	case fresh && from >= s.cfg.Part.N() && !ts.tun.clientDriven:
		s.startCoordination(from, msg.TravelID, ts)
	case msg.ExecID != 0 && ts.seeded.CompareAndSwap(false, true):
		s.runSeedExec(ts, msg.ExecID)
	}
}

// registerTravel returns the state of msg's traversal, registering it from
// msg's plan if this server does not know it yet (fresh). It returns nil for
// a finished traversal, and for a plan-less message of an unknown one: an
// orphan, counted, as no message ahead of it on its link carried the plan
// (DESIGN §8). A known or finished traversal's plan is never decoded.
func (s *Server) registerTravel(from int, msg wire.Message) (ts *travelState, fresh bool) {
	s.mu.Lock()
	ts = s.travels[msg.TravelID]
	gone := s.closed || s.doneTravels[msg.TravelID]
	s.mu.Unlock()
	if ts != nil || gone {
		return ts, false
	}
	if len(msg.Plan) == 0 && msg.Kind != wire.KindStartTravel {
		s.met.Add(metrics.OrphanMsgs, 1)
		return nil, false
	}
	plan, err := query.DecodePlan(msg.Plan)
	if err != nil {
		// A malformed plan from a client gets an immediate error reply.
		if from >= s.cfg.Part.N() {
			s.send(from, wire.Message{Kind: wire.KindTravelDone, TravelID: msg.TravelID, Err: err.Error()})
		}
		return nil, false
	}
	mode := Mode(msg.Mode)
	tun := mode.tuning()
	coord := msg.Coord
	if from >= s.cfg.Part.N() && !tun.clientDriven {
		coord = int32(s.cfg.ID) // a client's request: this server coordinates
	} else if !tun.clientDriven && (coord < 0 || int(coord) >= s.cfg.Part.N()) {
		return nil, false // a server-side traversal's coordinator is a server
	}

	ts = &travelState{
		id:        msg.TravelID,
		plan:      plan,
		planBytes: msg.Plan,
		mode:      mode,
		tun:       tun,
		coord:     coord,
		outbox:    make([][]*outboxSet, plan.NumSteps()+1),
		told:      make([]atomic.Bool, s.cfg.Part.N()),
		rtn:       make(map[rtnKey]*rtnRec),
	}
	ts.told[s.cfg.ID].Store(true) // this server knows it, as does a server-side coordinator
	if !tun.clientDriven {
		ts.told[coord].Store(true)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.travels[msg.TravelID]; cur != nil || s.closed || s.doneTravels[msg.TravelID] {
		return cur, false // registered from another link meanwhile, or finished
	}
	// Register the traversal's sub-queue with the shared executor before any
	// request can be pushed; the server's standing worker pool picks its
	// groups up under the fair-share policy.
	s.exec.Register(msg.TravelID, sched.Options{
		Priority: ts.tun.priority,
		Merge:    ts.tun.merge,
		Gated:    ts.tun.gated,
		Owner:    ts,
	})
	s.travels[msg.TravelID] = ts
	return ts, true
}

// runSeedExec performs the local source selection for label / full-scan
// seeded traversals: every candidate local vertex becomes a step-0 request.
// Candidates come from an index pushdown when one covers a step-0 filter,
// else from the label (or full) scan — see selectSeeds.
func (s *Server) runSeedExec(ts *travelState, execID uint64) {
	s0 := ts.plan.Steps[0]
	ids, err := s.selectSeeds(s0)
	if len(ids) == 0 || err != nil {
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		s.endUnqueued(ts, &execAcc{id: execID, sp: s.beginSpan(ts.id, execID, 0, 0, len(ids))}, errMsg)
		return
	}
	entries := make([]wire.Entry, len(ids))
	for i, id := range ids {
		entries[i] = wire.Entry{Vertex: id, AncStep: -1, Dest: -1}
	}
	// Seed executions are DAG roots: no dispatching execution created them.
	s.startExec(ts, execID, 0, 0, entries)
}

// startExec enqueues entries as the traversal execution id at step, created
// by execution parent: with the affiliate cache on (§V-A), only those no
// execution brought here before, ending at once if none is left, and not at
// all if this server started the id already (a duplicated dispatch). A batch
// the executor refuses (it refuses whole) ends the execution at once with a
// retryable error, so the ledger fails the traversal promptly.
func (s *Server) startExec(ts *travelState, id, parent uint64, step int32, entries []wire.Entry) {
	var skip []bool
	redundant := 0
	if ts.tun.useCache {
		var small [2048]bool // the batch's mask, on the stack when it fits
		if len(entries) <= len(small) {
			skip = small[:len(entries)]
		} else {
			skip = make([]bool, len(entries))
		}
		var fresh bool
		if redundant, fresh = s.cache.Admit(ts.id, id, step, entries, skip); !fresh {
			return
		}
	}
	acc := &execAcc{id: id, sp: s.beginSpan(ts.id, id, parent, step, len(entries))}
	live := len(entries) - redundant
	acc.pending.Store(int32(live))
	acc.sp.AddRedundant(redundant)
	if err := s.enqueue(ts, step, acc, entries, skip, live); err != nil {
		s.endUnqueued(ts, acc, s.admissionError(err))
		return
	}
	s.met.Add(metrics.Redundant, int64(redundant))
	if live == 0 {
		acc.finished(s, ts)
		s.maybeFlush(ts, 0)
	}
}

// misroutedEntries scans a dispatch batch for a vertex whose partition
// this server no longer primaries — evidence the sender routed with a
// stale table — returning the offending partition.
func (s *Server) misroutedEntries(entries []wire.Entry) (int, bool) {
	self := int32(s.cfg.ID)
	for _, e := range entries {
		p := s.cfg.Route.Partition(e.Vertex)
		if s.cfg.Route.Assignment(p).Primary != self {
			return p, true
		}
	}
	return 0, false
}

// handleDispatch enqueues a frontier batch as one traversal execution.
func (s *Server) handleDispatch(_ int, msg wire.Message, ts *travelState) {
	if len(msg.Entries) == 0 {
		s.endUnqueued(ts, &execAcc{id: msg.ExecID, sp: s.beginSpan(ts.id, msg.ExecID, msg.ParentExec, msg.Step, 0)}, "")
		return
	}
	// With replication enabled, fence work routed with a stale table: a
	// batch holding any vertex whose partition this server no longer
	// primaries fails whole with a retryable error, and the retry — after
	// the client merges the gossiped route — lands on the new primary.
	if s.cfg.Route != nil {
		if p, moved := s.misroutedEntries(msg.Entries); moved {
			errMsg := fmt.Sprintf("%v: partition %d is not primaried by server %d", ErrPartitionMoved, p, s.cfg.ID)
			s.endUnqueued(ts, &execAcc{id: msg.ExecID, sp: s.beginSpan(ts.id, msg.ExecID, msg.ParentExec, msg.Step, len(msg.Entries))}, errMsg)
			return
		}
	}
	s.startExec(ts, msg.ExecID, msg.ParentExec, msg.Step, msg.Entries)
}

// handleTravelDone releases a finished traversal's state.
func (s *Server) handleTravelDone(msg wire.Message) {
	s.mu.Lock()
	s.dropTravelLocked(msg.TravelID)
	s.mu.Unlock()
}

func (s *Server) dropTravelLocked(id uint64) {
	if _, ok := s.travels[id]; ok {
		// Evict the dead traversal's pending groups from the shared
		// executor so they never occupy a worker.
		s.exec.Drop(id)
		delete(s.travels, id)
	}
	s.cache.DropTravel(id)
	if !s.doneTravels[id] {
		s.doneTravels[id] = true
		s.doneOrder = append(s.doneOrder, id)
		if len(s.doneOrder) > doneHistory {
			old := s.doneOrder[0]
			s.doneOrder = s.doneOrder[1:]
			delete(s.doneTravels, old)
		}
	}
}

// send transmits one engine message, tracking the outbound-message and
// failure counters. There is no per-message retry — callers that can
// attribute a failure to a traversal record it on the traversal's error
// path, and the failure detector and inactivity timeout cover the rest —
// but a dead link is observable in MsgsFailed instead of vanishing
// silently.
func (s *Server) send(to int, msg wire.Message) error {
	s.met.Add(metrics.MsgsSent, 1)
	if err := s.tr.Send(to, msg); err != nil {
		s.met.Add(metrics.MsgsFailed, 1)
		return err
	}
	return nil
}

// addErr records a traversal-level error for the next flush.
func (ts *travelState) addErr(e string) {
	ts.flushMu.Lock()
	defer ts.flushMu.Unlock()
	ts.errs = append(ts.errs, e)
}

// addEnded records a completed execution for the next flush.
func (ts *travelState) addEnded(id uint64) {
	ts.flushMu.Lock()
	defer ts.flushMu.Unlock()
	ts.ended = append(ts.ended, id)
}
