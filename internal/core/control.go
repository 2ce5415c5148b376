package core

import (
	"fmt"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/metrics"
	"graphtrek/internal/wire"
)

// This file is the server's control plane: one goroutine per server does
// all of its timed work in tick, and the failure detector sharpens the
// paper's §IV-C failure story from "timeouts flag silent failures" to
// detection within a couple of heartbeat intervals. Every backend beacons
// to every other backend each HeartbeatInterval; any inbound message
// refreshes the sender's liveness, so heartbeats only set a floor on the
// signal. A peer silent for SuspectAfter is suspected dead: the detector
// gossips a PeerDown announcement and every coordinator fails its
// traversals that have live executions registered on the suspect —
// immediately, with a peer-specific error — so the client's retry policy
// reroutes around the dead server. TravelTimeout remains the backstop for
// failures heartbeats cannot see (e.g. a live server that silently discards
// work): tick fails every coordinated ledger inactive that long.

// inactivityError fails a traversal whose ledger saw no report for
// TravelTimeout.
const inactivityError = "core: traversal made no progress within the failure-detection timeout; " +
	"an execution was created but never terminated (suspected server failure)"

// startControl starts the control loop, called from Bind. It ticks every
// HeartbeatInterval/2 or TravelTimeout/4, the shorter of those that are
// on; with both off, no loop runs.
func (s *Server) startControl() {
	now := time.Now()
	for i := range s.lastSeen {
		s.lastSeen[i].Store(now.UnixNano())
	}
	s.nextBeat = now.Add(s.cfg.HeartbeatInterval)
	var d time.Duration
	if hb := s.cfg.HeartbeatInterval; hb > 0 {
		d = max(hb/2, 1)
	}
	if tt := s.cfg.TravelTimeout; tt > 0 && (d == 0 || tt/4 < d) {
		d = max(tt/4, 1)
	}
	if d == 0 {
		return
	}
	s.spawn(func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.tick(time.Now())
			}
		}
	})
}

// tick does the server's timed work as of now: it beacons every
// HeartbeatInterval, suspects the peers silent longer than SuspectAfter,
// and fails each coordinated traversal whose ledger has been inactive
// longer than TravelTimeout. It is not safe for concurrent use: only the
// control loop calls it, or a test on a server whose loop never ticks.
func (s *Server) tick(now time.Time) {
	if s.cfg.HeartbeatInterval > 0 {
		if !now.Before(s.nextBeat) {
			// Keep to the schedule, so a late tick does not stretch the
			// next interval; restart it if the loop fell a beat behind.
			if s.nextBeat = s.nextBeat.Add(s.cfg.HeartbeatInterval); !now.Before(s.nextBeat) {
				s.nextBeat = now.Add(s.cfg.HeartbeatInterval)
			}
			// Heartbeats bypass the MsgsSent engine counter so message
			// accounting is the same with the detector on or off.
			for p := 0; p < s.cfg.Part.N(); p++ {
				if p != s.cfg.ID {
					_ = s.tr.Send(p, wire.Message{Kind: wire.KindHeartbeat, Peer: int32(s.cfg.ID)})
				}
			}
		}
		s.suspectSilent(now)
	}
	if s.cfg.TravelTimeout > 0 {
		s.failLedgers(func(led *ledger) string {
			if now.Sub(led.activity) > s.cfg.TravelTimeout {
				return inactivityError
			}
			return ""
		})
	}
}

// silentPeers lists the servers other than self last heard from more than
// after before now; lastSeen holds each server's last-heard time in unix
// nanoseconds.
func silentPeers(now time.Time, lastSeen []int64, after time.Duration, self int) []int {
	var out []int
	for p, seen := range lastSeen {
		if p != self && now.UnixNano()-seen > int64(after) {
			out = append(out, p)
		}
	}
	return out
}

// suspectSilent raises a suspicion for every peer silent as of now.
func (s *Server) suspectSilent(now time.Time) {
	seen := make([]int64, len(s.lastSeen))
	for p := range seen {
		seen[p] = s.lastSeen[p].Load()
	}
	// Mark every newly silent peer before reacting to any of them: a node
	// isolated from the whole cluster sees all its peers expire in one
	// scan, and the replication layer's majority guard must observe the
	// full suspicion set or it would drive a split-brain failover off the
	// first name in iteration order.
	var fresh []int
	for _, p := range silentPeers(now, seen, s.cfg.SuspectAfter, s.cfg.ID) {
		if !s.suspected[p].Swap(true) {
			fresh = append(fresh, p)
		}
	}
	for _, p := range fresh {
		s.onPeerDown(p, "missed heartbeats (local detection)", true)
	}
}

// noteAlive refreshes a backend peer's liveness; any message counts. A
// suspected peer that speaks again is un-suspected — the detector
// re-raises the suspicion if the silence resumes.
func (s *Server) noteAlive(from int) {
	if from < 0 || from >= len(s.lastSeen) || from == s.cfg.ID {
		return
	}
	s.lastSeen[from].Store(time.Now().UnixNano())
	if s.suspected[from].Swap(false) {
		// Suspicion cleared: a false positive, or a recovered peer. Invite
		// it back into any replica set it was evicted from (repl.go); a
		// transient blip must not permanently erode the replication factor.
		s.journal.Record(events.Event{Type: events.SuspicionDown, Part: -1, Peer: from,
			Detail: "peer spoke again"})
		s.replOnPeerUp(from)
	}
}

// isSuspect reports whether backend p is currently suspected dead.
func (s *Server) isSuspect(p int) bool {
	return p >= 0 && p < len(s.suspected) && s.suspected[p].Load()
}

// onPeerDown reacts to a fresh suspicion, journaled with detail: locally
// detected suspicions are gossiped so the whole cluster converges within
// one message delay, and every coordinated traversal with live work on the
// suspect fails fast.
func (s *Server) onPeerDown(peer int, detail string, broadcast bool) {
	s.met.Add(metrics.PeerDownEvents, 1)
	s.journal.Record(events.Event{Type: events.SuspicionUp, Part: -1, Peer: peer, Detail: detail})
	if broadcast {
		for p := 0; p < s.cfg.Part.N(); p++ {
			if p == s.cfg.ID || p == peer || s.isSuspect(p) {
				continue
			}
			s.send(p, wire.Message{Kind: wire.KindPeerDown, Peer: int32(peer)})
		}
	}
	s.failLedgers(func(led *ledger) string {
		if led.liveByServer[int32(peer)] > 0 {
			return peerDeadError(peer)
		}
		return ""
	})
	// With replication enabled, a condemned backend also triggers failover:
	// promote a new primary for partitions it led, shrink replica sets it
	// followed in (repl.go).
	s.replOnPeerDown(peer)
}

// handlePeerDown adopts a suspicion gossiped by another backend.
func (s *Server) handlePeerDown(from int, msg wire.Message) {
	peer := int(msg.Peer)
	if from >= s.cfg.Part.N() || peer < 0 || peer >= len(s.suspected) || peer == s.cfg.ID {
		return
	}
	if s.suspected[peer].Swap(true) {
		return
	}
	s.onPeerDown(peer, fmt.Sprintf("adopted from server %d's PeerDown broadcast", from), false)
}

// failLedgers fails every traversal this server coordinates for which why,
// called with the ledger's lock held, returns an error; "" leaves it.
func (s *Server) failLedgers(why func(*ledger) string) {
	s.mu.Lock()
	leds := make([]*ledger, 0, len(s.ledgers))
	for _, led := range s.ledgers {
		leds = append(leds, led)
	}
	s.mu.Unlock()
	for _, led := range leds {
		led.mu.Lock()
		if msg := why(led); msg != "" && !led.done {
			led.errs = append(led.errs, msg)
			s.finishTravelLocked(led)
			continue
		}
		led.mu.Unlock()
	}
}

// peerDeadError is the peer-specific failure a suspected-dead backend
// produces; clients match on "suspected dead" to distinguish fast
// detection from the generic inactivity timeout.
func peerDeadError(peer int) string {
	return fmt.Sprintf("core: server %d suspected dead (missed heartbeats); traversal failed for fast retry", peer)
}
