package core

import (
	"encoding/json"
	"fmt"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/metrics"
	"graphtrek/internal/status"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// This file is the introspection surface: a server's span dump, event
// journal and status document, each built by one method (SpanDump, Events,
// Status) that internal/obs serves over HTTP in process and that the one
// pull message (KindIntrospectReq, Mode naming the document) serves over the
// wire, which the client fans out across every backend for gtq -profile /
// -critical-path / -events / -status and a coordinator uses for its
// slow-traversal capture.

// Events returns the server's buffered control-plane journal, oldest
// first: the last journalCap events.
func (s *Server) Events() []events.Event { return s.journal.Events() }

// Histograms returns snapshots of the server's native latency histograms
// for metric exposition.
func (s *Server) Histograms() []metrics.HistogramSnapshot { return s.met.Histograms() }

// Status assembles the server's live status document: executor and cache
// gauges, read from the metrics snapshot that carries them, plus, with
// replication enabled, one entry per partition this server holds a role in.
func (s *Server) Status() status.Server {
	m := s.Metrics()
	out := status.Server{
		Server:         s.cfg.ID,
		QueueLen:       int(m.QueueLen),
		QueueHighWater: int(m.QueueDepthPeak),
		Cache: status.CacheStats{
			VtxHits: m.VtxCacheHits, VtxMisses: m.VtxCacheMisses,
			AdjHits: m.AdjCacheHits, AdjMisses: m.AdjCacheMisses,
		},
	}
	if s.repl != nil {
		now := time.Now()
		s.replMu.Lock()
		for p, m := range s.repl {
			if ps, ok := m.Status(now, s.cfg.Route.Assignment(p)); ok {
				out.Partitions = append(out.Partitions, ps)
			}
		}
		s.replMu.Unlock()
	}
	r := s.Ready()
	out.Ready = r.Ready
	out.NotReadyReasons = r.Reasons
	return out
}

// Ready reports whether this server can currently meet its durability
// contract: every partition it primaries must reach write quorum with
// unsuspected replicas, no snapshot replay may be in flight locally, and
// no handoff stream may be mid-flight to a joiner. Unreplicated clusters
// are always ready.
func (s *Server) Ready() status.Readiness {
	var reasons []string
	if s.repl != nil {
		s.replMu.Lock()
		for p, m := range s.repl {
			reasons = m.Unready(s.cfg.Route.Assignment(p), reasons)
		}
		s.replMu.Unlock()
	}
	return status.Readiness{Ready: len(reasons) == 0, Reasons: reasons}
}

// SpanDump is this server's answer to a span pull: the spans it buffered
// for the traversal (travel == 0: everything), its ring's eviction count,
// and the ledger summary when it coordinated the traversal (travel == 0:
// every buffered summary). With tracing disabled the dump is empty, not an
// error — profiling degrades, it never fails.
func (s *Server) SpanDump(travel uint64) trace.SpanDump {
	return s.trc.Dump(int32(s.cfg.ID), travel)
}

// handleIntrospectReq serves the one introspection pull: the document
// msg.Mode names, JSON-encoded in Blob. An unknown Mode is answered with an
// error rather than dropped, so a newer client asking an older server fails
// at once instead of waiting out its timeout.
func (s *Server) handleIntrospectReq(from int, msg wire.Message) {
	resp := wire.Message{Kind: wire.KindIntrospectResp, TravelID: msg.TravelID, ReqID: msg.ReqID, Mode: msg.Mode}
	var doc any
	switch msg.Mode {
	case wire.IntrospectSpans:
		doc = s.SpanDump(msg.TravelID)
	case wire.IntrospectEvents:
		doc = s.Events()
	case wire.IntrospectStatus:
		doc = s.Status()
	default:
		resp.Err = fmt.Sprintf("core: unknown introspection kind %d", msg.Mode)
		s.send(from, resp)
		return
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.Blob = blob
	}
	s.send(from, resp)
}

// spanDumps pulls every backend's raw spans for the traversal. A backend
// that cannot be reached fails the pull: a profile or DAG silently missing
// one server's executions would read as a tracing bug.
func (h *Handle) spanDumps(timeout time.Duration) ([]trace.SpanDump, error) {
	c := h.client
	deadline := pullDeadline(timeout)
	dumps, errs := fanOut(c.part.N(), func(srv int) (trace.SpanDump, error) {
		return pull[trace.SpanDump](&c.calls, srv, wire.IntrospectSpans, h.travelID, deadline)
	})
	return dumps, failAny(errs)
}

// Profile gathers the traversal's execution-trace aggregate from every
// backend: one StepStat row per (step, server) that ran executions, sorted
// by step then server. Call it after Wait — spans are buffered in each
// server's trace ring, so a completed traversal stays profilable until
// later traversals evict its spans. Servers with tracing disabled (or
// nothing buffered) contribute no rows; a backend that cannot be reached
// fails the profile.
func (h *Handle) Profile(timeout time.Duration) ([]trace.StepStat, error) {
	dumps, err := h.spanDumps(timeout)
	if err != nil {
		return nil, err
	}
	var spans []trace.Span
	for _, d := range dumps {
		spans = append(spans, d.Spans...)
	}
	return trace.Aggregate(spans), nil
}

// FetchDAG pulls every backend's raw spans for the traversal and joins
// them into its causal execution DAG: span linkage across servers, ledger
// cross-check against the coordinator summary, and critical-path
// attribution (see trace.Assemble). Call it after Wait — like Profile, it
// reads the servers' trace rings, so the DAG stays fetchable until later
// traversals evict the spans (DAG.SpansDropped reports ring churn).
func (h *Handle) FetchDAG(timeout time.Duration) (*trace.DAG, error) {
	dumps, err := h.spanDumps(timeout)
	if err != nil {
		return nil, err
	}
	return trace.AssembleDumps(h.travelID, dumps, nil), nil
}

// ClusterEvents pulls every backend's journal and merges the entries into
// one timeline (events.Merge), and reports the servers that answered, in
// ascending order: an empty journal and an unreachable one read alike in
// the timeline. Best-effort across a degraded cluster: the pulls run
// concurrently so a dead server consumes only its own timeout instead of
// starving the rest of the fleet, unreachable servers are skipped, and the
// call errors only when no server answered.
func (c *Client) ClusterEvents(timeout time.Duration) (evs []events.Event, from []int, err error) {
	deadline := pullDeadline(timeout)
	journals, from, err := answered(fanOut(c.part.N(), func(srv int) ([]events.Event, error) {
		return pull[[]events.Event](&c.calls, srv, wire.IntrospectEvents, 0, deadline)
	}))
	if err != nil {
		return nil, nil, err
	}
	return events.Merge(journals...), from, nil
}

// ClusterStatus pulls every backend's status document, ordered by server
// id; each document names its server, so the servers that answered are
// the documents'. Best-effort like ClusterEvents: the pulls run
// concurrently so a dead server consumes only its own timeout, unreachable
// servers are skipped, and the call errors only when no server answered.
func (c *Client) ClusterStatus(timeout time.Duration) ([]status.Server, error) {
	deadline := pullDeadline(timeout)
	sts, _, err := answered(fanOut(c.part.N(), func(srv int) (status.Server, error) {
		return pull[status.Server](&c.calls, srv, wire.IntrospectStatus, 0, deadline)
	}))
	return sts, err
}
