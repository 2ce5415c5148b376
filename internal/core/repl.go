package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/repl"
	"graphtrek/internal/route"
	"graphtrek/internal/wire"
)

// This file is the shell around internal/repl, which holds the replication
// protocol — quorum writes, epoch fencing, ring repair, snapshot handoff,
// promotion — as one pure state machine per partition (DESIGN.md §12). The
// shell decodes and bounds-checks a message, steps the partition's machine
// under replMu, and executes the effects the step returned after releasing
// it. It is active only when Config.Route is set; without a route view
// s.repl is nil and the engine behaves as before.

// newRepl builds one machine per partition from the boot route table.
func (s *Server) newRepl() {
	if s.cfg.Route == nil {
		return
	}
	wait := s.cfg.HeartbeatInterval
	if wait <= 0 {
		wait = 50 * time.Millisecond
	}
	s.repl = make([]*repl.Machine, s.cfg.Route.Parts())
	for p := range s.repl {
		s.repl[p] = repl.New(repl.Config{
			Self: int32(s.cfg.ID), Part: int32(p),
			WriteTimeout: s.cfg.WriteTimeout, PollWait: wait, Factor: s.cfg.ReplicationFactor,
			Live: func(srv int32) bool { return !s.isSuspect(int(srv)) },
		}, s.cfg.Route.Assignment(p))
	}
}

// replStep is the one place replication state changes: under replMu it
// steps partition p's machine with the assignment current at that moment,
// then executes the effects outside the lock. write, when set, is the
// primary's store apply: it must share the critical section with
// sequencing. The transport invokes handlers concurrently, so applying
// outside it would let two same-key writes reach the primary's store in one
// order but carry sequence numbers in the other, and followers, which
// replay in sequence order, would diverge from the primary on that key for
// good. Intern allocation sits there for the same reason: the id a name
// gets must be sequenced before a later allocation observes the counter.
//
// err is write's refusal, and nothing was stepped. sent is the first send
// failure among the effects: the step stands — a batch that could not reach
// one follower is still sequenced, shipped to the others and pending — so
// only a caller whose whole purpose was the send (JoinPartition) reads it.
func (s *Server) replStep(p int, ev repl.Event, write func(route.Assignment) (blob, reply []byte, err error)) (sent, err error) {
	buf := effectLists.Get().(*[]repl.Effect)
	s.replMu.Lock()
	a := s.cfg.Route.Assignment(p)
	if write != nil {
		if ev.Blob, ev.Reply, err = write(a); err != nil {
			s.replMu.Unlock()
			effectLists.Put(buf)
			return nil, err
		}
	}
	out := s.repl[p].Step(time.Now(), a, ev, (*buf)[:0])
	s.replMu.Unlock()
	sent = s.runEffects(p, out)
	clear(out) // a recycled list must not pin the payloads it carried
	*buf = out
	effectLists.Put(buf)
	return sent, nil
}

// effectLists recycles the lists steps return, so the effect list costs a
// write no allocation.
var effectLists = sync.Pool{New: func() any { return new([]repl.Effect) }}

// replAll steps every partition's machine with one event.
func (s *Server) replAll(ev repl.Event) {
	for p := range s.repl {
		s.replStep(p, ev, nil)
	}
}

// runEffects carries out what a step asked for, in order, and returns the
// first send error.
func (s *Server) runEffects(p int, out []repl.Effect) (first error) {
	for _, e := range out {
		switch e.Kind {
		case repl.Send:
			msg := wire.Message{Kind: e.Wire, Part: int32(p), Mode: e.Mode, ReqID: e.ReqID,
				Epoch: e.Epoch, Seq: e.Seq, Base: e.Base, Err: e.Err, Blob: e.Blob}
			if e.Table {
				msg.Blob = s.cfg.Route.Table().Encode()
			}
			if err := s.send(int(e.To), msg); first == nil {
				first = err
			}
		case repl.Apply:
			// A failed apply sends no ack: the primary times out or re-ships.
			if s.applyBatch(e.Blob) == nil && e.Seq != 0 {
				s.replStep(p, repl.Event{Kind: repl.Applied, From: e.To, Epoch: e.Epoch, Seq: e.Seq, Blob: e.Blob, Snap: e.Snap}, nil)
			}
		case repl.Snapshot:
			// Off the dispatch goroutine: scanning a large partition must not
			// stall heartbeat and traversal handling.
			s.spawn(func() { s.streamSnapshot(p, e) })
		case repl.Propose:
			// nil: lost to a concurrent proposal of an equal or higher epoch.
			if tbl := s.cfg.Route.Propose(p, e.Next); tbl != nil {
				s.replStep(p, repl.Event{Kind: repl.Assign}, nil)
				s.gossipRoute(tbl)
			}
		case repl.Timer:
			s.after(e.D, func() { s.replStep(p, repl.Event{Kind: repl.Tick}, nil) })
		case repl.Journal:
			s.journal.Record(events.Event{Type: e.Event, Part: p, Peer: int(e.To), Epoch: e.Epoch, Detail: e.Detail})
		case repl.Count:
			s.met.Add(e.Counter, e.N)
		case repl.QuorumWrite:
			s.met.ObserveQuorumWrite(e.D)
		}
	}
	return first
}

// applyBatch decodes and applies one shipped mutation batch to the local
// store.
func (s *Server) applyBatch(blob []byte) error {
	muts, err := gstore.DecodeBatch(blob)
	if err != nil {
		return err
	}
	for _, m := range muts {
		if err := m.Apply(s.cfg.Store); err != nil {
			return err
		}
	}
	return nil
}

// streamSnapshot scans the local store for partition p and ships it as
// snapshot chunks, closing with the sequence and epoch the machine captured
// when it asked for the stream.
func (s *Server) streamSnapshot(p int, e repl.Effect) {
	view := s.cfg.Route
	keep := func(id model.VertexID) bool { return view.Partition(id) == p }
	err := gstore.SnapshotMutations(s.cfg.Store, keep, s.cfg.BatchSize, func(ms []gstore.Mutation) error {
		blob := gstore.EncodeBatch(ms)
		s.met.Add(metrics.HandoffBytes, int64(len(blob)))
		return s.send(int(e.To), wire.Message{Kind: wire.KindSnapshot, Mode: repl.SnapModeChunk, Part: int32(p), Blob: blob})
	})
	if err == nil { // else a stalled join; the joiner's operator retries
		s.send(int(e.To), wire.Message{Kind: wire.KindSnapshot, Mode: repl.SnapModeFinal, Part: int32(p), Epoch: e.Epoch, Seq: e.Seq})
	}
}

// --- Inbound messages -------------------------------------------------------

// The events a replication message's Mode selects, in wire order.
var (
	appendEvents = []repl.EventKind{repl.Append}
	ackEvents    = []repl.EventKind{repl.Ack, repl.Nak, repl.Fence, repl.SeqQuery, repl.SeqInfo}
	snapEvents   = []repl.EventKind{repl.SnapReq, repl.SnapChunk, repl.SnapFinal, repl.SnapDone, repl.Join}
)

// replPart bounds-checks a replication message's partition.
func (s *Server) replPart(msg wire.Message) (int, bool) {
	p := int(msg.Part)
	return p, p >= 0 && p < len(s.repl)
}

// handleRepl turns a replication message into its machine event. A fence
// and a rejoin nudge carry the sender's route table, which is merged first:
// the machine then acts on the assignment the table taught.
func (s *Server) handleRepl(from int, msg wire.Message, kinds []repl.EventKind) {
	p, ok := s.replPart(msg)
	if !ok || int(msg.Mode) >= len(kinds) {
		return
	}
	kind := kinds[msg.Mode]
	if kind == repl.Fence || kind == repl.Join {
		if tbl, err := route.DecodeTable(msg.Blob); err == nil {
			s.applyRouteTable(tbl)
		}
	}
	s.replStep(p, repl.Event{Kind: kind, From: int32(from), ReqID: msg.ReqID,
		Epoch: msg.Epoch, Seq: msg.Seq, Base: msg.Base, Blob: msg.Blob}, nil)
}

// handleWriteReq serves a client's request for one partition: the read-only
// name service, or a mutation batch the primary applies, ships and
// acknowledges at quorum. Every failure leaves through the one reply below.
func (s *Server) handleWriteReq(from int, msg wire.Message) {
	resp := wire.Message{Kind: wire.KindWriteResp, ReqID: msg.ReqID, Part: msg.Part}
	var err error
	switch msg.Mode {
	case wire.WriteModeResolve:
		resp.Blob, err = lookup(s, msg.Blob, "resolve", wire.DecodeNames, gstore.Interner.LookupID, wire.EncodeIDs)
	case wire.WriteModeNames:
		resp.Blob, err = lookup(s, msg.Blob, "materialize", wire.DecodeIDs, gstore.Interner.LookupName, wire.EncodeNames)
	default:
		if err = s.replWrite(from, msg); err == nil {
			return // the machine answers, now or at quorum
		}
	}
	if err != nil {
		resp.Blob, resp.Err = nil, err.Error()
		if errors.Is(err, ErrPartitionMoved) {
			// A stale client route: the table sends the retry to the right server.
			resp.Blob = s.cfg.Route.Table().Encode()
		}
	}
	s.send(from, resp)
}

// replWrite decodes a mutation or intern request and steps it through the
// partition's machine, applying it to the store inside the step's critical
// section.
func (s *Server) replWrite(from int, msg wire.Message) error {
	if s.repl == nil {
		return errors.New("core: replication is not enabled on this cluster")
	}
	p, ok := s.replPart(msg)
	if !ok {
		return fmt.Errorf("core: no such partition %d", p)
	}
	// Decode before the lock: a malformed payload is terminal and never
	// touches replication state.
	var muts []gstore.Mutation
	var names []string
	var err error
	if msg.Mode == wire.WriteModeIntern {
		names, err = wire.DecodeNames(msg.Blob)
	} else {
		muts, err = gstore.DecodeBatch(msg.Blob)
	}
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	ev := repl.Event{Kind: repl.Write, From: int32(from), ReqID: msg.ReqID, Start: time.Now()}
	_, err = s.replStep(p, ev, func(a route.Assignment) ([]byte, []byte, error) {
		if a.Primary != int32(s.cfg.ID) {
			return nil, nil, fmt.Errorf("%w: partition %d is primaried by server %d", ErrPartitionMoved, p, a.Primary)
		}
		if msg.Mode != wire.WriteModeIntern {
			for _, m := range muts {
				if err := m.Apply(s.cfg.Store); err != nil {
					return nil, nil, fmt.Errorf("core: apply write on server %d: %v", s.cfg.ID, err)
				}
			}
			return msg.Blob, nil, nil
		}
		// Allocate (or find) the ids, then replicate the result as an
		// ordinary OpIntern batch: followers and joiners replay the same
		// mutations a snapshot would carry, so every replica reconstructs the
		// identical name↔id mapping. The id list rides on the success
		// response only — an allocation is observable once a quorum holds it.
		ids := make([]model.VertexID, len(names))
		muts = make([]gstore.Mutation, len(names))
		for i, name := range names {
			id, err := s.cfg.Store.Intern(name, p)
			if err != nil {
				return nil, nil, fmt.Errorf("core: intern on server %d: %v", s.cfg.ID, err)
			}
			ids[i] = id
			muts[i] = gstore.Mutation{Op: gstore.OpIntern, ID: id, Name: name}
		}
		return gstore.EncodeBatch(muts), wire.EncodeIDs(ids), nil
	})
	return err
}

// JoinPartition asks partition p's primary to stream its state to this
// server, making it a follower without downtime: snapshot chunks plus the
// forwarded live append tail, then a fresh epoch that adds this server to
// the replica set. A no-op on a server that is already a replica.
func (s *Server) JoinPartition(p int) error {
	if s.repl == nil {
		return errors.New("core: replication is not enabled on this cluster")
	}
	if p < 0 || p >= len(s.repl) {
		return fmt.Errorf("core: no such partition %d", p)
	}
	sent, _ := s.replStep(p, repl.Event{Kind: repl.Join}, nil)
	return sent
}

// --- Failure detector hooks ---------------------------------------------------

// replOnPeerDown reacts to a condemned backend: every machine promotes,
// nominates or shrinks as its role says, under fresh epochs.
func (s *Server) replOnPeerDown(peer int) {
	// Majority guard: a node that cannot see most of the backends is more
	// likely the isolated one than a witness to everyone else's death. If it
	// drove promotions or shrinks anyway, its higher epochs would hijack
	// partitions when the partition healed — with data the real majority
	// never acked. So automatic failover needs >= 3 backends; a 2-server
	// cluster cannot tell peer death from its own isolation and stays
	// read-available only.
	n, visible := s.cfg.Part.N(), 1
	for p := 0; p < n; p++ {
		if p != s.cfg.ID && !s.isSuspect(p) {
			visible++
		}
	}
	if visible*2 > n {
		s.replAll(repl.Event{Kind: repl.PeerDown, From: int32(peer)})
	}
}

// replOnPeerUp reacts to a peer's suspicion clearing: primaries below their
// replication factor invite it back.
func (s *Server) replOnPeerUp(peer int) {
	s.replAll(repl.Event{Kind: repl.PeerUp, From: int32(peer)})
}

// --- Route gossip -------------------------------------------------------------

// gossipRoute broadcasts a route table to every node on the transport —
// servers and clients alike — so traversal dispatch and write routing
// converge on the new assignment within one message delay.
func (s *Server) gossipRoute(tbl *route.Table) {
	blob := tbl.Encode()
	for n := 0; n < s.tr.N(); n++ {
		if n != s.cfg.ID {
			s.send(n, wire.Message{Kind: wire.KindRouteUpdate, Blob: blob})
		}
	}
}

// handleRouteUpdate merges a gossiped table. Anti-entropy: when our table
// is strictly newer somewhere, reply with it so the sender converges too.
func (s *Server) handleRouteUpdate(from int, msg wire.Message) {
	if s.repl == nil {
		return
	}
	tbl, err := route.DecodeTable(msg.Blob)
	if err != nil {
		return
	}
	s.applyRouteTable(tbl)
	if ours := s.cfg.Route.Table(); tableNewer(ours, tbl) {
		s.send(from, wire.Message{Kind: wire.KindRouteUpdate, Blob: ours.Encode()})
	}
}

// tableNewer reports whether a carries a higher epoch than b for any
// partition.
func tableNewer(a, b *route.Table) bool {
	if len(a.Parts) != len(b.Parts) {
		return false
	}
	for p := range a.Parts {
		if a.Parts[p].Epoch > b.Parts[p].Epoch {
			return true
		}
	}
	return false
}

// applyRouteTable merges a table into the view and, if anything changed,
// tells every machine; each aligns its role with its new assignment.
func (s *Server) applyRouteTable(tbl *route.Table) {
	if s.cfg.Route.Update(tbl) {
		s.replAll(repl.Event{Kind: repl.Assign})
	}
}
