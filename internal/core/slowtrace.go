package core

import (
	"fmt"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// Slow-traversal capture: when a traversal's end-to-end latency crosses
// Config.SlowTravelNs, its coordinator pulls every server's raw spans for
// it (the introspection pull, wire.IntrospectSpans), assembles the causal
// DAG, and keeps the result in a small bounded ring. The evidence for "why
// was that one slow" thus survives the per-server trace rings' churn and
// stays inspectable later through Server.SlowTravels and the obs
// /traces/slow endpoint.

// slowTravelCap bounds the retained slow-traversal DAGs (oldest evicted).
const slowTravelCap = 32

// slowPullTimeout bounds how long the capture waits for each peer's spans.
const slowPullTimeout = 2 * time.Second

// maybeCaptureSlow spawns the slow-traversal capture when a finished
// traversal crossed the configured latency threshold. Asynchronous and
// best-effort: a peer that never answers costs one timeout and shows up as
// orphans in the assembled DAG, never as a stuck coordinator.
func (s *Server) maybeCaptureSlow(sum trace.TravelSummary) {
	if s.cfg.SlowTravelNs <= 0 || s.trc == nil || sum.ElapsedNs < s.cfg.SlowTravelNs {
		return
	}
	s.journal.Record(events.Event{Type: events.SlowTravel, Part: -1, Peer: -1,
		Detail: fmt.Sprintf("travel %d took %v (threshold %v), capturing DAG",
			sum.Travel, time.Duration(sum.ElapsedNs), time.Duration(s.cfg.SlowTravelNs))})
	s.spawn(func() { s.captureSlowTravel(sum) })
}

func (s *Server) captureSlowTravel(sum trace.TravelSummary) {
	deadline := time.Now().Add(slowPullTimeout)
	// Skip-unreachable: a peer whose pull fails leaves an empty dump, and its
	// executions surface as orphans in the DAG.
	dumps, _ := fanOut(s.cfg.Part.N(), func(srv int) (trace.SpanDump, error) {
		if srv == s.cfg.ID {
			return s.spanDump(sum.Travel), nil
		}
		return pull[trace.SpanDump](&s.calls, srv, wire.IntrospectSpans, sum.Travel, deadline)
	})
	d := assembleDumps(sum.Travel, dumps, &sum)
	s.slowMu.Lock()
	s.slowDAGs = append(s.slowDAGs, d)
	if len(s.slowDAGs) > slowTravelCap {
		s.slowDAGs = s.slowDAGs[len(s.slowDAGs)-slowTravelCap:]
	}
	s.slowMu.Unlock()
}

// SlowTravels returns the captured slow-traversal DAGs, oldest first.
func (s *Server) SlowTravels() []*trace.DAG {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	out := make([]*trace.DAG, len(s.slowDAGs))
	copy(out, s.slowDAGs)
	return out
}
