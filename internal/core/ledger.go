package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// ledger is the coordinator's status-tracing record for one traversal
// (§IV-C). Every traversal execution in the cluster is logged here as
// created and, later, terminated. Because creation and termination reports
// travel on independent links, either may arrive first; the ledger
// therefore tracks matched pairs and declares the traversal complete
// exactly when the created and terminated sets coincide. The key soundness
// property: a terminating execution registers its children in the same
// (atomically processed) message, so set equality implies cluster-wide
// quiescence.
type ledger struct {
	mu      sync.Mutex
	travel  uint64
	mode    Mode // forwarded on the wire and printed in the summary, never compared
	gated   bool // tuning.gated: release steps one barrier at a time
	client  int
	plan    *query.Plan
	servers int
	// broadcast: every live server was sent the plan at the start. Otherwise
	// only the servers named by a registered execution (touched) learnt of
	// the traversal.
	broadcast bool
	touched   []bool

	execs         map[uint64]*execInfo
	liveByStep    map[int32]int // created-and-not-ended executions per step
	liveByServer  map[int32]int // same, keyed by assigned server — the failure detector's join point
	liveTotal     int
	unmatchedEnds int
	rootsSent     bool

	// createdTotal / endedTotal count distinct registered / terminated
	// executions over the traversal's lifetime (live counters net out to
	// zero at completion). They feed the coordinator's TravelSummary, where
	// trace-span counts can be cross-checked against ledger accounting.
	createdTotal int
	endedTotal   int
	started      time.Time

	gate     int32            // Sync-GT barrier position
	results  []model.VertexID // every report's, in arrival order; sorted and compacted at the finish
	errs     []string
	done     bool
	activity time.Time // last report; the control loop's inactivity timeout reads it
}

type execInfo struct {
	step    int32
	server  int32
	created bool
	ended   bool
}

// startCoordination turns this server into the coordinator for a traversal
// submitted by a client: it sends the root executions — a scan-seeded or
// gated traversal is broadcast, an id-seeded one starts at its seeds'
// owners, this server's own root in place. From then on the control loop
// (control.go) fails it if its ledger stays inactive for TravelTimeout.
func (s *Server) startCoordination(client int, travelID uint64, ts *travelState) {
	s0 := ts.plan.Steps[0]
	seedByScan := len(s0.SourceIDs) == 0
	led := &ledger{
		travel:       travelID,
		mode:         ts.mode,
		gated:        ts.tun.gated,
		client:       client,
		plan:         ts.plan,
		servers:      s.cfg.Part.N(),
		broadcast:    seedByScan || ts.tun.gated,
		touched:      make([]bool, s.cfg.Part.N()),
		execs:        make(map[uint64]*execInfo),
		liveByStep:   make(map[int32]int),
		liveByServer: make(map[int32]int),
		activity:     time.Now(),
		started:      time.Now(),
	}
	s.mu.Lock()
	s.ledgers[travelID] = led
	s.mu.Unlock()

	// Replicated clusters: every partition needs an un-suspected primary,
	// or the traversal would silently skip that partition's vertices —
	// between a primary's death and a follower's promotion the partition is
	// orphaned. Failing here (retryably) makes the client's retry loop wait
	// out the failover instead of accepting an incomplete result set.
	if s.cfg.Route != nil {
		for p := 0; p < s.cfg.Route.Parts(); p++ {
			if prim := int(s.cfg.Route.Assignment(p).Primary); s.isSuspect(prim) {
				led.mu.Lock()
				led.errs = append(led.errs,
					fmt.Sprintf("core: partition %d primary server %d suspected dead; awaiting failover", p, prim))
				led.mu.Unlock()
				s.checkLedger(led)
				return
			}
		}
	}

	// Explicit-id seeding: one root dispatch per owning server. A root
	// bound for another server carries the plan unless a StartTravel or a
	// dispatch that carried it there was accepted first (ship).
	var roots []outMsg
	if !seedByScan {
		byOwner := make(map[int][]wire.Entry)
		seen := make(map[model.VertexID]bool, len(s0.SourceIDs))
		for _, id := range s0.SourceIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			owner := s.cfg.Part.Owner(id)
			byOwner[owner] = append(byOwner[owner], wire.Entry{Vertex: id, AncStep: -1, Dest: -1})
		}
		for owner, entries := range byOwner {
			roots = append(roots, outMsg{owner, wire.Message{
				Kind: wire.KindDispatch, TravelID: travelID, Step: 0, ExecID: s.newExecID(), Entries: entries,
			}})
		}
	}

	led.mu.Lock()
	// Broadcast the traversal to every other live backend; with scan
	// seeding, each broadcast carries that server's root execution id.
	// Suspected-dead peers are skipped entirely — a traversal started
	// while a peer is down routes around it (its partition's vertices are
	// unreachable until it recovers) instead of hanging on it.
	var bcasts []outMsg
	for srv := 0; led.broadcast && srv < led.servers; srv++ {
		if srv == s.cfg.ID || s.isSuspect(srv) {
			continue
		}
		m := wire.Message{Kind: wire.KindStartTravel, TravelID: travelID} // ship adds the plan
		if seedByScan {
			m.ExecID = s.newExecID()
			led.registerCreatedLocked(wire.ExecRef{ID: m.ExecID, Server: int32(srv), Step: 0})
		}
		bcasts = append(bcasts, outMsg{srv, m})
	}
	var selfSeed uint64
	if seedByScan {
		selfSeed = s.newExecID()
		led.registerCreatedLocked(wire.ExecRef{ID: selfSeed, Server: int32(s.cfg.ID), Step: 0})
	}
	for _, r := range roots {
		led.registerCreatedLocked(wire.ExecRef{ID: r.msg.ExecID, Server: int32(r.target), Step: 0})
	}
	led.rootsSent = true
	led.mu.Unlock()

	// A failed send here means the execution just registered for that
	// peer will never run: record it on the ledger so the traversal fails
	// fast instead of waiting out the inactivity timeout. An accepted
	// StartTravel tells its target the traversal, so this server's
	// dispatches there, its own seed's included, go without the plan.
	var sendErrs []string
	for _, b := range bcasts {
		if err := s.ship(ts, b); err != nil {
			sendErrs = append(sendErrs, fmt.Sprintf("core: start broadcast to server %d failed: %v", b.target, err))
		}
	}
	if seedByScan {
		s.runSeedExec(ts, selfSeed)
	}
	for _, r := range roots {
		if r.target == s.cfg.ID {
			s.handleDispatch(r.target, r.msg, ts)
		} else if err := s.ship(ts, r); err != nil {
			sendErrs = append(sendErrs, fmt.Sprintf("core: root dispatch to server %d failed: %v", r.target, err))
		}
	}
	if len(sendErrs) > 0 {
		led.mu.Lock()
		led.errs = append(led.errs, sendErrs...)
		led.mu.Unlock()
	}
	// A traversal with zero sources completes immediately; one with a
	// dead link or a suspected peer in its root set fails immediately.
	s.checkLedger(led)
}

// registerCreatedLocked records a newly created execution. Its server is
// touched whether or not the execution's end came first and it was never
// live: the traversal reached the server either way.
func (l *ledger) registerCreatedLocked(ref wire.ExecRef) {
	l.touched[ref.Server] = true
	info, ok := l.execs[ref.ID]
	if !ok {
		l.execs[ref.ID] = &execInfo{step: ref.Step, server: ref.Server, created: true}
		l.liveByStep[ref.Step]++
		l.liveByServer[ref.Server]++
		l.liveTotal++
		l.createdTotal++
		return
	}
	if info.created {
		return // duplicate registration
	}
	info.created = true
	info.step = ref.Step
	info.server = ref.Server
	l.createdTotal++
	if info.ended {
		l.unmatchedEnds-- // the early termination is now matched
	}
}

// registerEndedLocked records a terminated execution.
func (l *ledger) registerEndedLocked(id uint64) {
	info, ok := l.execs[id]
	if !ok {
		// Termination raced ahead of registration on another link.
		l.execs[id] = &execInfo{ended: true}
		l.unmatchedEnds++
		l.endedTotal++
		return
	}
	if info.ended {
		return
	}
	info.ended = true
	l.endedTotal++
	if info.created {
		l.liveByStep[info.step]--
		l.liveByServer[info.server]--
		l.liveTotal--
	} else {
		l.unmatchedEnds++
	}
}

// handleCoordinator applies an ExecEvents report — results, created and
// ended executions, errors — to the ledger of a traversal this server
// coordinates. Reports from this server arrive here in place (report).
func (s *Server) handleCoordinator(msg wire.Message) {
	s.mu.Lock()
	led, ok := s.ledgers[msg.TravelID]
	s.mu.Unlock()
	if !ok {
		return // finished or unknown traversal; drop silently
	}
	led.mu.Lock()
	if led.done {
		led.mu.Unlock()
		return
	}
	led.activity = time.Now()
	led.results = append(led.results, msg.Verts...)
	for _, ref := range msg.Created {
		led.registerCreatedLocked(ref)
	}
	for _, id := range msg.Ended {
		led.registerEndedLocked(id)
	}
	if msg.Err != "" {
		led.errs = append(led.errs, msg.Err)
	}
	led.mu.Unlock()
	s.checkLedger(led)
}

// checkLedger advances the synchronous barrier and detects completion.
func (s *Server) checkLedger(led *ledger) {
	led.mu.Lock()
	if led.done {
		led.mu.Unlock()
		return
	}
	if len(led.errs) > 0 {
		s.finishTravelLocked(led)
		return
	}
	// Fast failure: live work registered on a suspected-dead backend will
	// never terminate — fail now, not at TravelTimeout. This also catches
	// mid-traversal dispatches to a peer that died after the start
	// broadcast.
	for p := 0; p < led.servers; p++ {
		if s.isSuspect(p) && led.liveByServer[int32(p)] > 0 {
			led.errs = append(led.errs, peerDeadError(p))
			s.finishTravelLocked(led)
			return
		}
	}
	if !led.rootsSent || led.unmatchedEnds > 0 {
		led.mu.Unlock()
		return
	}
	if led.liveTotal == 0 {
		s.finishTravelLocked(led)
		return
	}
	if led.gated {
		// Barrier: when nothing at or below the gate is live, release the
		// next step that has registered executions.
		minLive := int32(-1)
		for step, n := range led.liveByStep {
			if n > 0 && (minLive < 0 || step < minLive) {
				minLive = step
			}
		}
		if minLive > led.gate {
			led.gate = minLive
			travel := led.travel
			servers := led.servers
			gate := led.gate
			led.mu.Unlock()
			for srv := 0; srv < servers; srv++ {
				s.send(srv, wire.Message{Kind: wire.KindStepGo, TravelID: travel, Step: gate})
			}
			return
		}
	}
	led.mu.Unlock()
}

// finishTravelLocked completes a traversal: results (sorted and unique) or
// the error go to the client, the backends holding its state are told to
// release it, and the ledger is retired. A clean finish releases the
// servers a registered execution named: the ledger saw every execution, so
// no other server learnt of the traversal. A failed one, or a broadcast
// one, releases every server. Called with led.mu held; releases it.
func (s *Server) finishTravelLocked(led *ledger) {
	led.done = true
	slices.Sort(led.results)
	results := slices.Compact(led.results)
	errText := ""
	if len(led.errs) > 0 {
		errText = led.errs[0]
	}
	client := led.client
	travel := led.travel
	release := led.touched
	if led.broadcast || len(led.errs) > 0 {
		release = nil
	}
	sum := trace.TravelSummary{
		Travel:      travel,
		Mode:        led.mode.String(),
		Coordinator: int32(s.cfg.ID),
		Created:     led.createdTotal,
		Ended:       led.endedTotal,
		Results:     len(results),
		Err:         errText,
		ElapsedNs:   int64(time.Since(led.started)),
	}
	if s.trc != nil {
		s.trc.RecordSummary(sum)
	}
	// End-to-end latency histogram at the coordinator: one sample per
	// coordinated traversal, tracing enabled or not.
	s.met.ObserveTravelLatency(time.Duration(sum.ElapsedNs))
	led.mu.Unlock()

	s.mu.Lock()
	delete(s.ledgers, travel)
	s.mu.Unlock()

	// Result batches precede the final done marker on the same link.
	const chunk = 1 << 14
	for i := 0; i < len(results); i += chunk {
		end := min(i+chunk, len(results))
		s.send(client, wire.Message{Kind: wire.KindResult, TravelID: travel, Verts: results[i:end]})
	}
	s.send(client, wire.Message{Kind: wire.KindTravelDone, TravelID: travel, Err: errText})
	for srv := range led.servers {
		if srv != s.cfg.ID && (release == nil || release[srv]) {
			s.send(srv, wire.Message{Kind: wire.KindTravelDone, TravelID: travel})
		}
	}
	// Drop the local state directly rather than via a self-send: the dead
	// traversal's pending groups must leave the shared executor even if the
	// loopback link is saturated or failing.
	s.mu.Lock()
	s.dropTravelLocked(travel)
	s.mu.Unlock()
	// Trace rings outlive travel state, so the capture can still join every
	// server's spans after the release broadcast above.
	s.maybeCaptureSlow(sum)
}

// handleCancel aborts a traversal this server coordinates: the client gets
// a cancellation error, backends drop their state, and late messages for
// the traversal are discarded through the done-travel history. Cancelling
// an unknown or finished traversal is a no-op.
func (s *Server) handleCancel(msg wire.Message) {
	s.mu.Lock()
	led, ok := s.ledgers[msg.TravelID]
	s.mu.Unlock()
	if !ok {
		return
	}
	led.mu.Lock()
	if led.done {
		led.mu.Unlock()
		return
	}
	led.errs = append(led.errs, "core: traversal cancelled by client")
	s.finishTravelLocked(led)
}

// handleProgressReq answers a client's progress query from the ledger
// (§IV-C): one (step, live-execution-count) pair per active step, packed
// into ExecRefs. A finished or unknown traversal answers with an empty
// report and an explanatory Err.
func (s *Server) handleProgressReq(from int, msg wire.Message) {
	resp := wire.Message{Kind: wire.KindProgressResp, TravelID: msg.TravelID, ReqID: msg.ReqID}
	live, ok := s.Progress(msg.TravelID)
	if !ok {
		resp.Err = "core: traversal not coordinated here (finished or unknown)"
	}
	for step, n := range live {
		resp.Created = append(resp.Created, wire.ExecRef{Step: step, ID: uint64(n)})
	}
	s.send(from, resp)
}

// Progress reports, for a traversal this server coordinates, the number of
// live (created but unterminated) executions per step — the progress-
// estimation signal of §IV-C. The second result is false when this server
// does not coordinate the traversal.
func (s *Server) Progress(travelID uint64) (map[int32]int, bool) {
	s.mu.Lock()
	led, ok := s.ledgers[travelID]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	out := make(map[int32]int, len(led.liveByStep))
	for step, n := range led.liveByStep {
		if n > 0 {
			out[step] = n
		}
	}
	return out, true
}
