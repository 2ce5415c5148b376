package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/status"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// This file is the introspection surface: a server's execution spans,
// event journal and replication status document, readable in process
// (Server.TraceSpans / Events / Status / Ready, which internal/obs serves
// over HTTP) and over the wire through the one pull message
// (KindIntrospectReq, Mode naming the document), which the client fans out
// across every backend for gtq -profile / -critical-path / -events /
// -status and a coordinator uses for its slow-traversal capture.

// Events returns the server's buffered control-plane journal, oldest
// first: the last journalCap events.
func (s *Server) Events() []events.Event { return s.journal.Events() }

// Histograms returns snapshots of the server's native latency histograms
// for metric exposition.
func (s *Server) Histograms() []metrics.HistogramSnapshot { return s.met.Histograms() }

// Status assembles the server's live status document: executor and cache
// gauges plus, with replication enabled, one entry per partition this
// server holds a role in.
func (s *Server) Status() status.Server {
	out := status.Server{
		Server:         s.cfg.ID,
		QueueLen:       s.exec.Len(),
		QueueHighWater: s.exec.HighWater(),
	}
	if cs, ok := s.cfg.Store.(gstore.CacheStatter); ok {
		st := cs.CacheStats()
		out.Cache = status.CacheStats{
			VtxHits: st.VtxHits, VtxMisses: st.VtxMisses,
			AdjHits: st.AdjHits, AdjMisses: st.AdjMisses,
		}
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

// spanDump is this server's answer to a span pull: the spans it buffered
// for the traversal (travel == 0: everything), its ring's eviction count,
// and the ledger summary when it coordinated the traversal. With tracing
// disabled the dump is empty, not an error — profiling degrades, it never
// fails.
func (s *Server) spanDump(travel uint64) trace.SpanDump {
	dump := trace.SpanDump{
		Server:  int32(s.cfg.ID),
		Spans:   s.TraceSpans(travel),
		Dropped: s.trc.Stats().SpansEvicted,
	}
	if sum, ok := s.TraceSummary(travel); ok {
		dump.Summary = &sum
	}
	return dump
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
		doc = s.spanDump(msg.TravelID)
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

// assembleDumps joins per-server span dumps into the traversal's causal
// DAG. summary is the coordinator's ledger record when the caller already
// holds it; otherwise the one a dump carries is used.
func assembleDumps(travel uint64, dumps []trace.SpanDump, summary *trace.TravelSummary) *trace.DAG {
	var spans []trace.Span
	var dropped uint64
	for _, d := range dumps {
		spans = append(spans, d.Spans...)
		dropped += d.Dropped
		if summary == nil {
			summary = d.Summary
		}
	}
	dag := trace.Assemble(travel, spans, summary)
	dag.SpansDropped = dropped
	return dag
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
	return assembleDumps(h.travelID, dumps, nil), nil
}

// ServerEvents pulls one backend's event journal.
func (c *Client) ServerEvents(srv int, timeout time.Duration) ([]events.Event, error) {
	return pull[[]events.Event](&c.calls, srv, wire.IntrospectEvents, 0, pullDeadline(timeout))
}

// ClusterEvents pulls every backend's journal and merges the entries into
// one timeline, ordered by wall-clock stamp (ties: server, then per-server
// sequence). Best-effort across a degraded cluster: the pulls run
// concurrently so a dead server consumes only its own timeout instead of
// starving the rest of the fleet, unreachable servers are skipped, and the
// call errors only when no server answered.
func (c *Client) ClusterEvents(timeout time.Duration) ([]events.Event, error) {
	deadline := pullDeadline(timeout)
	journals, err := answered(fanOut(c.part.N(), func(srv int) ([]events.Event, error) {
		return pull[[]events.Event](&c.calls, srv, wire.IntrospectEvents, 0, deadline)
	}))
	if err != nil {
		return nil, err
	}
	var all []events.Event
	for _, evs := range journals {
		all = append(all, evs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].TimeUnixNano != all[j].TimeUnixNano {
			return all[i].TimeUnixNano < all[j].TimeUnixNano
		}
		if all[i].Server != all[j].Server {
			return all[i].Server < all[j].Server
		}
		return all[i].Seq < all[j].Seq
	})
	return all, nil
}

// ServerStatus pulls one backend's status document.
func (c *Client) ServerStatus(srv int, timeout time.Duration) (status.Server, error) {
	return pull[status.Server](&c.calls, srv, wire.IntrospectStatus, 0, pullDeadline(timeout))
}

// ClusterStatus pulls every backend's status document, ordered by server
// id. Best-effort like ClusterEvents: the pulls run concurrently so a dead
// server consumes only its own timeout, unreachable servers are skipped,
// and the call errors only when no server answered.
func (c *Client) ClusterStatus(timeout time.Duration) ([]status.Server, error) {
	deadline := pullDeadline(timeout)
	return answered(fanOut(c.part.N(), func(srv int) (status.Server, error) {
		return pull[status.Server](&c.calls, srv, wire.IntrospectStatus, 0, deadline)
	}))
}
