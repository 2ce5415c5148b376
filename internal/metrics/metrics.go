// Package metrics collects the per-server counters the paper instruments
// the GraphTrek engine with (§VII-A): for every backend server, how many
// vertex requests arrived, how many were eliminated as redundant by the
// traversal-affiliate cache, how many were combined by execution merging,
// and how many turned into real I/O visits against the storage system.
// The invariant the paper states — redundant + combined + real = received —
// is asserted by tests and checked by the benchmark harness.
package metrics

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Server holds one backend server's counters. All methods are safe for
// concurrent use. The zero value is ready.
type Server struct {
	received   atomic.Int64
	redundant  atomic.Int64
	combined   atomic.Int64
	realIO     atomic.Int64
	msgsSent   atomic.Int64
	execs      atomic.Int64
	msgsFailed atomic.Int64
	reconnects atomic.Int64
	peerDowns  atomic.Int64
	orphanMsgs atomic.Int64

	// Shared-executor instrumentation.
	rejected    atomic.Int64
	queuePeak   atomic.Int64
	queueWaitNs atomic.Int64
	queueGroups atomic.Int64

	// Seed-selection instrumentation. The read-cache counters have no
	// atomics here: the storage layer owns them and the server overlays
	// them into its snapshots.
	seedScanned   atomic.Int64
	seedIndexHits atomic.Int64

	// Replication / failover instrumentation.
	promotions   atomic.Int64
	epochRejects atomic.Int64
	replLag      atomic.Int64
	handoffBytes atomic.Int64
	rejoinNudges atomic.Int64

	// Native latency histograms (log-linear buckets, see histogram.go).
	// These live outside Snapshot — Snapshot stays the flat counter copy
	// the Fields() reflection contract enumerates — and are exported
	// through Histograms() as real Prometheus histogram series.
	travelLatency Histogram
	queueWaitHist Histogram
	stepCompute   Histogram
	quorumWrite   Histogram
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	// Received counts vertex requests (frontier entries) accepted.
	Received int64
	// Redundant counts requests dropped by the traversal-affiliate cache.
	Redundant int64
	// Combined counts requests served by an execution-merged disk access
	// (every request in a merged group beyond the first).
	Combined int64
	// RealIO counts actual vertex accesses against the storage system.
	RealIO int64
	// MsgsSent counts engine messages sent to peers.
	MsgsSent int64
	// Execs counts traversal executions processed.
	Execs int64
	// MsgsFailed counts engine messages the transport failed to deliver
	// (dead link, backpressure). A nonzero value makes a dead peer
	// observable instead of silently stranding the traversal.
	MsgsFailed int64
	// Reconnects counts transport-level re-dials after a lost peer
	// connection.
	Reconnects int64
	// PeerDownEvents counts failure-detector suspicion events: a backend
	// transitioned from alive to suspected-dead (locally detected or
	// learned via a PeerDown broadcast).
	PeerDownEvents int64
	// OrphanMsgs counts dropped plan-less messages of a traversal the server
	// neither knew nor had finished: none ahead on their link had the plan.
	OrphanMsgs int64
	// CacheEvictions counts keys the affiliate cache evicted (§V-A).
	CacheEvictions int64
	// Rejected counts request batches refused by the shared executor's
	// admission control (queue depth limit).
	Rejected int64
	// QueueDepthPeak is the high-water mark of the shared executor's queue
	// depth (items buffered across all traversals). A gauge, not a counter:
	// Add takes the max of the operands and Sub keeps the receiver's value.
	QueueDepthPeak int64
	// QueueWaitNs accumulates the enqueue→pop wait of every scheduler group
	// a worker served; QueueGroups counts those groups, so the mean wait is
	// QueueWaitNs / QueueGroups.
	QueueWaitNs int64
	// QueueGroups counts scheduler groups popped by executor workers.
	QueueGroups int64
	// SeedScanned counts step-0 source candidates enumerated by seed
	// selection, on either path: the label population when seeding by
	// scan, or the index matches when a filter was pushed down. With an
	// index covering a selective seed this equals the match count instead
	// of the label population (core's TestSeedScannedCountsBothPaths).
	SeedScanned int64
	// SeedIndexHits counts seed candidates resolved via a property index
	// lookup instead of a label scan.
	SeedIndexHits int64
	// VtxCacheHits / VtxCacheMisses count decoded-vertex read-cache
	// outcomes in the storage layer (zero when no cache is configured).
	VtxCacheHits   int64
	VtxCacheMisses int64
	// AdjCacheHits / AdjCacheMisses count materialized-adjacency read-cache
	// outcomes in the storage layer.
	AdjCacheHits   int64
	AdjCacheMisses int64
	// SpansDropped counts execution spans the trace ring evicted to admit
	// newer ones. The trace layer owns the counter (the server overlays it
	// into snapshots, like the cache counters); a nonzero value tells the
	// DAG assembler that missing parent spans may be wrapped-ring
	// artifacts rather than causality bugs.
	SpansDropped int64
	// Promotions counts follower→primary promotions this server performed
	// on itself (epoch-fenced failover takeovers).
	Promotions int64
	// EpochRejects counts replication or write messages rejected because
	// they carried a stale epoch — each one is a fenced stale primary.
	EpochRejects int64
	// ReplLagBytes is the primary's shipped-minus-acked replication byte
	// lag summed over its partitions and followers. A gauge: Sub keeps the
	// receiver's (later) value, Add sums across servers.
	ReplLagBytes int64
	// HandoffBytes counts snapshot bytes streamed for shard handoff /
	// follower catch-up.
	HandoffBytes int64
	// RejoinNudges counts invitations a primary sent to a recovered peer to
	// rejoin replica sets it was evicted from while suspected. A growing
	// value without matching epoch bumps flags partitions stuck below the
	// configured replication factor.
	RejoinNudges int64

	// Go runtime GC overlay (from runtime.ReadMemStats at snapshot time;
	// the runtime owns them like the storage layer owns the cache
	// counters). Process-level: in-process simulated clusters report the
	// same values on every server, so Add takes the max instead of an
	// N-fold overcount.

	// HeapAllocBytes is the live heap at snapshot time. A gauge.
	HeapAllocBytes int64
	// NumGC counts completed GC cycles since process start.
	NumGC int64
	// GCPauseTotalNs accumulates stop-the-world pause time since process
	// start.
	GCPauseTotalNs int64
	// GCPauseP95Ns is the 95th-percentile pause over the runtime's recent
	// pause ring (up to the last 256 cycles). A gauge.
	GCPauseP95Ns int64
}

// AddReceived records n accepted vertex requests.
func (s *Server) AddReceived(n int) { s.received.Add(int64(n)) }

// AddRedundant records n cache-eliminated requests.
func (s *Server) AddRedundant(n int) { s.redundant.Add(int64(n)) }

// AddCombined records n merge-eliminated requests.
func (s *Server) AddCombined(n int) { s.combined.Add(int64(n)) }

// AddRealIO records n real storage accesses.
func (s *Server) AddRealIO(n int) { s.realIO.Add(int64(n)) }

// AddMsgsSent records n outbound messages.
func (s *Server) AddMsgsSent(n int) { s.msgsSent.Add(int64(n)) }

// AddExecs records n processed executions.
func (s *Server) AddExecs(n int) { s.execs.Add(int64(n)) }

// AddMsgsFailed records n undeliverable outbound messages.
func (s *Server) AddMsgsFailed(n int) { s.msgsFailed.Add(int64(n)) }

// AddReconnects records n transport re-dials.
func (s *Server) AddReconnects(n int) { s.reconnects.Add(int64(n)) }

// AddPeerDownEvents records n failure-detector suspicion events.
func (s *Server) AddPeerDownEvents(n int) { s.peerDowns.Add(int64(n)) }

// AddOrphanMsgs records n dropped messages of an unknown traversal.
func (s *Server) AddOrphanMsgs(n int) { s.orphanMsgs.Add(int64(n)) }

// AddRejected records n admission-control rejections.
func (s *Server) AddRejected(n int) { s.rejected.Add(int64(n)) }

// ObserveQueueDepth raises the executor queue-depth high-water mark.
func (s *Server) ObserveQueueDepth(depth int64) {
	for {
		cur := s.queuePeak.Load()
		if depth <= cur || s.queuePeak.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// AddSeedScanned records n step-0 source candidates enumerated.
func (s *Server) AddSeedScanned(n int) { s.seedScanned.Add(int64(n)) }

// AddSeedIndexHits records n seed candidates resolved via a property index.
func (s *Server) AddSeedIndexHits(n int) { s.seedIndexHits.Add(int64(n)) }

// AddPromotions records n follower→primary promotions of this server.
func (s *Server) AddPromotions(n int) { s.promotions.Add(int64(n)) }

// AddEpochRejects records n stale-epoch rejections.
func (s *Server) AddEpochRejects(n int) { s.epochRejects.Add(int64(n)) }

// AddReplLagBytes moves the replication byte lag by a delta.
func (s *Server) AddReplLagBytes(n int64) { s.replLag.Add(n) }

// AddHandoffBytes records n snapshot bytes streamed for handoff.
func (s *Server) AddHandoffBytes(n int64) { s.handoffBytes.Add(n) }

// AddRejoinNudges records n rejoin invitations sent to a recovered peer.
func (s *Server) AddRejoinNudges(n int64) { s.rejoinNudges.Add(n) }

// AddQueueWait records one popped scheduler group's enqueue→pop wait,
// both in the legacy cumulative counters and the queue-wait histogram —
// so the histogram's _count stays pinned to queue_groups_total.
func (s *Server) AddQueueWait(d time.Duration) {
	s.queueWaitNs.Add(int64(d))
	s.queueGroups.Add(1)
	s.queueWaitHist.Record(int64(d))
}

// ObserveTravelLatency records one coordinated traversal's end-to-end
// latency (ledger creation to quiescence) at the coordinator.
func (s *Server) ObserveTravelLatency(d time.Duration) { s.travelLatency.Record(int64(d)) }

// ObserveStepCompute records the executor compute time of one popped
// scheduler group (pop to completion, disk included).
func (s *Server) ObserveStepCompute(d time.Duration) { s.stepCompute.Record(int64(d)) }

// ObserveQuorumWrite records one quorum write's accept-to-acknowledge
// latency at the partition primary.
func (s *Server) ObserveQuorumWrite(d time.Duration) { s.quorumWrite.Record(int64(d)) }

// HistogramSnapshot pairs one histogram's exposition identity with its
// snapshot. Base names carry no unit suffix conversion: samples are
// nanoseconds, and the exposition layer renders seconds.
type HistogramSnapshot struct {
	// Name is the Prometheus base name (the exposition appends
	// _bucket/_sum/_count).
	Name string
	// Help is the one-line exposition comment.
	Help string
	// Hist is the folded snapshot.
	Hist HistSnapshot
}

// Histograms snapshots every native histogram in stable order. The
// observability endpoint renders these as Prometheus histogram series,
// parallel to how Fields() drives the counter exposition.
func (s *Server) Histograms() []HistogramSnapshot {
	return []HistogramSnapshot{
		{"travel_latency_seconds", "End-to-end coordinated traversal latency (ledger creation to quiescence).", s.travelLatency.Snapshot()},
		{"queue_wait_seconds", "Enqueue-to-pop wait of scheduler groups served by executor workers.", s.queueWaitHist.Snapshot()},
		{"step_compute_seconds", "Executor compute time per popped scheduler group (disk included).", s.stepCompute.Snapshot()},
		{"quorum_write_seconds", "Quorum write accept-to-acknowledge latency at the partition primary.", s.quorumWrite.Snapshot()},
	}
}

// Snapshot returns a copy of the current counters.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		Received:       s.received.Load(),
		Redundant:      s.redundant.Load(),
		Combined:       s.combined.Load(),
		RealIO:         s.realIO.Load(),
		MsgsSent:       s.msgsSent.Load(),
		Execs:          s.execs.Load(),
		MsgsFailed:     s.msgsFailed.Load(),
		Reconnects:     s.reconnects.Load(),
		PeerDownEvents: s.peerDowns.Load(),
		OrphanMsgs:     s.orphanMsgs.Load(),
		Rejected:       s.rejected.Load(),
		QueueDepthPeak: s.queuePeak.Load(),
		QueueWaitNs:    s.queueWaitNs.Load(),
		QueueGroups:    s.queueGroups.Load(),
		SeedScanned:    s.seedScanned.Load(),
		SeedIndexHits:  s.seedIndexHits.Load(),
		Promotions:     s.promotions.Load(),
		EpochRejects:   s.epochRejects.Load(),
		ReplLagBytes:   s.replLag.Load(),
		HandoffBytes:   s.handoffBytes.Load(),
		RejoinNudges:   s.rejoinNudges.Load(),
	}
}

// Sub returns the counter deltas from an earlier snapshot — how the
// benchmark harness isolates one traversal's statistics. QueueDepthPeak is
// a gauge and keeps the receiver's (later) value.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		Received:       a.Received - b.Received,
		Redundant:      a.Redundant - b.Redundant,
		Combined:       a.Combined - b.Combined,
		RealIO:         a.RealIO - b.RealIO,
		MsgsSent:       a.MsgsSent - b.MsgsSent,
		Execs:          a.Execs - b.Execs,
		MsgsFailed:     a.MsgsFailed - b.MsgsFailed,
		Reconnects:     a.Reconnects - b.Reconnects,
		PeerDownEvents: a.PeerDownEvents - b.PeerDownEvents,
		OrphanMsgs:     a.OrphanMsgs - b.OrphanMsgs,
		CacheEvictions: a.CacheEvictions - b.CacheEvictions,
		Rejected:       a.Rejected - b.Rejected,
		QueueDepthPeak: a.QueueDepthPeak,
		QueueWaitNs:    a.QueueWaitNs - b.QueueWaitNs,
		QueueGroups:    a.QueueGroups - b.QueueGroups,
		SeedScanned:    a.SeedScanned - b.SeedScanned,
		SeedIndexHits:  a.SeedIndexHits - b.SeedIndexHits,
		VtxCacheHits:   a.VtxCacheHits - b.VtxCacheHits,
		VtxCacheMisses: a.VtxCacheMisses - b.VtxCacheMisses,
		AdjCacheHits:   a.AdjCacheHits - b.AdjCacheHits,
		AdjCacheMisses: a.AdjCacheMisses - b.AdjCacheMisses,
		SpansDropped:   a.SpansDropped - b.SpansDropped,
		Promotions:     a.Promotions - b.Promotions,
		EpochRejects:   a.EpochRejects - b.EpochRejects,
		ReplLagBytes:   a.ReplLagBytes,
		HandoffBytes:   a.HandoffBytes - b.HandoffBytes,
		RejoinNudges:   a.RejoinNudges - b.RejoinNudges,
		// Runtime overlay: gauges keep the later value, cycle/pause counters
		// difference to the interval's GC activity.
		HeapAllocBytes: a.HeapAllocBytes,
		NumGC:          a.NumGC - b.NumGC,
		GCPauseTotalNs: a.GCPauseTotalNs - b.GCPauseTotalNs,
		GCPauseP95Ns:   a.GCPauseP95Ns,
	}
}

// Add returns the field-wise sum of two snapshots. QueueDepthPeak is a
// gauge and takes the max — summing per-server peaks would overstate any
// single server's backlog.
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		Received:       a.Received + b.Received,
		Redundant:      a.Redundant + b.Redundant,
		Combined:       a.Combined + b.Combined,
		RealIO:         a.RealIO + b.RealIO,
		MsgsSent:       a.MsgsSent + b.MsgsSent,
		Execs:          a.Execs + b.Execs,
		MsgsFailed:     a.MsgsFailed + b.MsgsFailed,
		Reconnects:     a.Reconnects + b.Reconnects,
		PeerDownEvents: a.PeerDownEvents + b.PeerDownEvents,
		OrphanMsgs:     a.OrphanMsgs + b.OrphanMsgs,
		CacheEvictions: a.CacheEvictions + b.CacheEvictions,
		Rejected:       a.Rejected + b.Rejected,
		QueueDepthPeak: max(a.QueueDepthPeak, b.QueueDepthPeak),
		QueueWaitNs:    a.QueueWaitNs + b.QueueWaitNs,
		QueueGroups:    a.QueueGroups + b.QueueGroups,
		SeedScanned:    a.SeedScanned + b.SeedScanned,
		SeedIndexHits:  a.SeedIndexHits + b.SeedIndexHits,
		VtxCacheHits:   a.VtxCacheHits + b.VtxCacheHits,
		VtxCacheMisses: a.VtxCacheMisses + b.VtxCacheMisses,
		AdjCacheHits:   a.AdjCacheHits + b.AdjCacheHits,
		AdjCacheMisses: a.AdjCacheMisses + b.AdjCacheMisses,
		SpansDropped:   a.SpansDropped + b.SpansDropped,
		Promotions:     a.Promotions + b.Promotions,
		EpochRejects:   a.EpochRejects + b.EpochRejects,
		// Per-server lags sum to the cluster's total outstanding bytes.
		ReplLagBytes: a.ReplLagBytes + b.ReplLagBytes,
		HandoffBytes: a.HandoffBytes + b.HandoffBytes,
		RejoinNudges: a.RejoinNudges + b.RejoinNudges,
		// Process-level runtime stats: in-process clusters share one runtime,
		// so max (not sum) keeps the aggregate honest.
		HeapAllocBytes: max(a.HeapAllocBytes, b.HeapAllocBytes),
		NumGC:          max(a.NumGC, b.NumGC),
		GCPauseTotalNs: max(a.GCPauseTotalNs, b.GCPauseTotalNs),
		GCPauseP95Ns:   max(a.GCPauseP95Ns, b.GCPauseP95Ns),
	}
}

// Consistent reports whether redundant + combined + real == received, the
// accounting identity of §VII-A.
func (a Snapshot) Consistent() bool {
	return a.Redundant+a.Combined+a.RealIO == a.Received
}

// Field is one exported counter in the canonical enumeration.
type Field struct {
	// Name is the Prometheus-style metric name (snake_case, no prefix).
	Name string
	// Help is the one-line exposition comment.
	Help string
	// Gauge marks point-in-time values; everything else is a monotonic
	// counter.
	Gauge bool
	// Process marks process-wide facts (the Go runtime's GC statistics):
	// every server in one process reports the same value, so the
	// exposition emits them once, unlabeled, instead of per-server series
	// that a PromQL sum() would multiply by the server count.
	Process bool
	// Get reads the field from a snapshot.
	Get func(Snapshot) int64
}

// Fields enumerates every Snapshot field in declaration order, with
// exposition names and help strings. The observability endpoint renders
// /metrics from this list, so a counter added to Snapshot must be added
// here too — a reflection test enforces the correspondence, which keeps
// future counters from silently missing the exposition.
func Fields() []Field {
	return []Field{
		{"received_total", "Vertex requests (frontier entries) accepted.", false, false, func(s Snapshot) int64 { return s.Received }},
		{"redundant_total", "Requests dropped by the traversal-affiliate cache.", false, false, func(s Snapshot) int64 { return s.Redundant }},
		{"combined_total", "Requests served by an execution-merged disk access.", false, false, func(s Snapshot) int64 { return s.Combined }},
		{"real_io_total", "Actual vertex accesses against the storage system.", false, false, func(s Snapshot) int64 { return s.RealIO }},
		{"msgs_sent_total", "Engine messages sent to peers.", false, false, func(s Snapshot) int64 { return s.MsgsSent }},
		{"execs_total", "Traversal executions processed.", false, false, func(s Snapshot) int64 { return s.Execs }},
		{"msgs_failed_total", "Engine messages the transport failed to deliver.", false, false, func(s Snapshot) int64 { return s.MsgsFailed }},
		{"reconnects_total", "Transport-level re-dials after a lost peer connection.", false, false, func(s Snapshot) int64 { return s.Reconnects }},
		{"peer_down_events_total", "Failure-detector suspicion events.", false, false, func(s Snapshot) int64 { return s.PeerDownEvents }},
		{"orphan_msgs_total", "Plan-less messages of an unknown traversal, dropped.", false, false, func(s Snapshot) int64 { return s.OrphanMsgs }},
		{"cache_evictions_total", "Keys the traversal-affiliate cache evicted to admit newer ones.", false, false, func(s Snapshot) int64 { return s.CacheEvictions }},
		{"rejected_total", "Request batches refused by executor admission control.", false, false, func(s Snapshot) int64 { return s.Rejected }},
		{"queue_depth_peak", "High-water mark of the shared executor queue depth.", true, false, func(s Snapshot) int64 { return s.QueueDepthPeak }},
		{"queue_wait_ns_total", "Cumulative enqueue-to-pop wait of served scheduler groups.", false, false, func(s Snapshot) int64 { return s.QueueWaitNs }},
		{"queue_groups_total", "Scheduler groups popped by executor workers.", false, false, func(s Snapshot) int64 { return s.QueueGroups }},
		{"seed_scanned_total", "Step-0 source candidates enumerated by seed selection.", false, false, func(s Snapshot) int64 { return s.SeedScanned }},
		{"seed_index_hits_total", "Seed candidates resolved via a property index lookup.", false, false, func(s Snapshot) int64 { return s.SeedIndexHits }},
		{"vtx_cache_hits_total", "Decoded-vertex read-cache hits in the storage layer.", false, false, func(s Snapshot) int64 { return s.VtxCacheHits }},
		{"vtx_cache_misses_total", "Decoded-vertex read-cache misses in the storage layer.", false, false, func(s Snapshot) int64 { return s.VtxCacheMisses }},
		{"adj_cache_hits_total", "Materialized-adjacency read-cache hits in the storage layer.", false, false, func(s Snapshot) int64 { return s.AdjCacheHits }},
		{"adj_cache_misses_total", "Materialized-adjacency read-cache misses in the storage layer.", false, false, func(s Snapshot) int64 { return s.AdjCacheMisses }},
		{"trace_spans_dropped_total", "Execution spans evicted from the trace ring to admit newer ones.", false, false, func(s Snapshot) int64 { return s.SpansDropped }},
		{"promotions_total", "Follower-to-primary promotions performed by this server.", false, false, func(s Snapshot) int64 { return s.Promotions }},
		{"epoch_rejects_total", "Replication or write messages rejected for a stale epoch.", false, false, func(s Snapshot) int64 { return s.EpochRejects }},
		{"repl_lag_bytes", "Shipped-minus-acked replication byte lag across partitions.", true, false, func(s Snapshot) int64 { return s.ReplLagBytes }},
		{"handoff_bytes_total", "Snapshot bytes streamed for shard handoff and catch-up.", false, false, func(s Snapshot) int64 { return s.HandoffBytes }},
		{"rejoin_nudges_total", "Rejoin invitations sent to recovered peers for under-replicated partitions.", false, false, func(s Snapshot) int64 { return s.RejoinNudges }},
		{"heap_alloc_bytes", "Live heap bytes at snapshot time (runtime.MemStats.HeapAlloc).", true, true, func(s Snapshot) int64 { return s.HeapAllocBytes }},
		{"gc_cycles_total", "Completed GC cycles since process start.", false, true, func(s Snapshot) int64 { return s.NumGC }},
		{"gc_pause_ns_total", "Cumulative stop-the-world GC pause time.", false, true, func(s Snapshot) int64 { return s.GCPauseTotalNs }},
		{"gc_pause_p95_ns", "95th-percentile GC pause over the runtime's recent pause ring.", true, true, func(s Snapshot) int64 { return s.GCPauseP95Ns }},
	}
}

// ReadRuntime overlays the Go runtime's GC statistics onto a snapshot —
// the runtime owns these the way the storage layer owns the cache
// counters.
func ReadRuntime(s *Snapshot) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapAllocBytes = int64(ms.HeapAlloc)
	s.NumGC = int64(ms.NumGC)
	s.GCPauseTotalNs = int64(ms.PauseTotalNs)
	s.GCPauseP95Ns = pauseP95(&ms)
}

// pauseP95 computes the 95th-percentile pause from the runtime's circular
// pause buffer (up to the last 256 completed cycles).
func pauseP95(ms *runtime.MemStats) int64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	// Nearest-rank p95: the smallest pause >= 95% of the observed ones.
	idx := (n*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return int64(pauses[idx])
}
