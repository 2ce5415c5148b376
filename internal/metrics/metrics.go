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
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Server holds one backend server's counters. All methods are safe for
// concurrent use. The zero value is ready.
type Server struct {
	// c holds one atomic per Counter. The rows another layer owns (the
	// queue length, the read-cache, trace-ring, journal, affiliate-cache and
	// runtime counters) stay 0 here: the server overlays them into its
	// snapshots.
	c [numCounters]atomic.Int64

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
	// QueueLen is the items buffered in the shared executor's queue at
	// snapshot time. A gauge; the scheduler owns it.
	QueueLen int64
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
	// SpansRecorded counts execution spans the trace ring recorded since
	// start; SpansBuffered (a gauge) is the spans it holds now and
	// TraceSummaries (a gauge) the coordinator travel summaries. The trace
	// layer owns all three.
	SpansRecorded  int64
	SpansBuffered  int64
	TraceSummaries int64
	// EventsDropped counts control-plane events the journal's ring evicted
	// to admit newer ones; the journal owns it. A nonzero value tells an
	// empty stretch of /events from a quiet one.
	EventsDropped int64
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

	// Go runtime GC overlay (ReadRuntime, one runtime.ReadMemStats; the
	// runtime owns them like the storage layer owns the cache counters).
	// Process-level: in-process simulated clusters share one runtime, so
	// Add takes the max instead of an N-fold overcount, and a server's own
	// snapshot leaves them 0 for the exposition to read once per scrape.

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

// Counter names one Snapshot field: its index in declaration order, in
// Server's atomics and in the Fields() table.
type Counter uint8

// One Counter per Snapshot field, in declaration order.
const (
	Received Counter = iota
	Redundant
	Combined
	RealIO
	MsgsSent
	Execs
	MsgsFailed
	Reconnects
	PeerDownEvents
	OrphanMsgs
	CacheEvictions
	Rejected
	QueueDepthPeak
	QueueLen
	QueueWaitNs
	QueueGroups
	SeedScanned
	SeedIndexHits
	VtxCacheHits
	VtxCacheMisses
	AdjCacheHits
	AdjCacheMisses
	SpansDropped
	SpansRecorded
	SpansBuffered
	TraceSummaries
	EventsDropped
	Promotions
	EpochRejects
	ReplLagBytes
	HandoffBytes
	RejoinNudges
	HeapAllocBytes
	NumGC
	GCPauseTotalNs
	GCPauseP95Ns
	numCounters
)

// Add moves counter c by n (a gauge such as ReplLagBytes by a signed
// delta).
func (s *Server) Add(c Counter, n int64) { s.c[c].Add(n) }

// ObserveQueueDepth raises the executor queue-depth high-water mark.
func (s *Server) ObserveQueueDepth(depth int64) {
	peak := &s.c[QueueDepthPeak]
	for {
		cur := peak.Load()
		if depth <= cur || peak.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// AddQueueWait records one popped scheduler group's enqueue→pop wait,
// both in the legacy cumulative counters and the queue-wait histogram —
// so the histogram's _count stays pinned to queue_groups_total.
func (s *Server) AddQueueWait(d time.Duration) {
	s.c[QueueWaitNs].Add(int64(d))
	s.c[QueueGroups].Add(1)
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
	var snap Snapshot
	for c, f := range &table {
		*f.ptr(&snap) = s.c[c].Load()
	}
	return snap
}

// Sub returns the counter deltas from an earlier snapshot — how the
// benchmark harness isolates one traversal's statistics. A gauge keeps the
// receiver's (later) value.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	for _, f := range &table {
		if !f.Gauge {
			*f.ptr(&a) -= *f.ptr(&b)
		}
	}
	return a
}

// Add returns the field-wise sum of two snapshots; a Max row takes the
// larger value instead.
func (a Snapshot) Add(b Snapshot) Snapshot {
	for _, f := range &table {
		p, v := f.ptr(&a), *f.ptr(&b)
		if f.Max {
			*p = max(*p, v)
		} else {
			*p += v
		}
	}
	return a
}

// Consistent reports whether redundant + combined + real == received, the
// accounting identity of §VII-A.
func (a Snapshot) Consistent() bool {
	return a.Redundant+a.Combined+a.RealIO == a.Received
}

// Field is one exported counter in the canonical enumeration, with the
// rule that combines two snapshots' values of it.
type Field struct {
	// Name is the Prometheus-style metric name (snake_case, no prefix).
	Name string
	// Help is the one-line exposition comment.
	Help string
	// Gauge marks point-in-time values: Sub keeps the receiver's (later)
	// value. Everything else is a monotonic counter, and Sub differences it.
	Gauge bool
	// Process marks process-wide facts (the Go runtime's GC statistics):
	// every server in one process reports the same value, so the
	// exposition emits them once, unlabeled, instead of per-server series
	// that a PromQL sum() would multiply by the server count.
	Process bool
	// Max makes Add take the larger value instead of the sum: summing
	// per-server peaks would overstate any one server's backlog, and
	// in-process clusters share one runtime.
	Max bool

	ptr func(*Snapshot) *int64
}

// Get reads the field from a snapshot.
func (f Field) Get(s Snapshot) int64 { return *f.ptr(&s) }

// table is the one per-field list: Server's atomics, Snapshot, Sub, Add and
// the /metrics exposition all read it. Adding a counter is one Counter
// constant, one Snapshot field and one row here; TestFieldsCoverSnapshot
// holds the three to one order.
var table = [numCounters]Field{
	Received:       {Name: "received_total", Help: "Vertex requests (frontier entries) accepted.", ptr: func(s *Snapshot) *int64 { return &s.Received }},
	Redundant:      {Name: "redundant_total", Help: "Requests dropped by the traversal-affiliate cache.", ptr: func(s *Snapshot) *int64 { return &s.Redundant }},
	Combined:       {Name: "combined_total", Help: "Requests served by an execution-merged disk access.", ptr: func(s *Snapshot) *int64 { return &s.Combined }},
	RealIO:         {Name: "real_io_total", Help: "Actual vertex accesses against the storage system.", ptr: func(s *Snapshot) *int64 { return &s.RealIO }},
	MsgsSent:       {Name: "msgs_sent_total", Help: "Engine messages sent to peers.", ptr: func(s *Snapshot) *int64 { return &s.MsgsSent }},
	Execs:          {Name: "execs_total", Help: "Traversal executions processed.", ptr: func(s *Snapshot) *int64 { return &s.Execs }},
	MsgsFailed:     {Name: "msgs_failed_total", Help: "Engine messages the transport failed to deliver.", ptr: func(s *Snapshot) *int64 { return &s.MsgsFailed }},
	Reconnects:     {Name: "reconnects_total", Help: "Transport-level re-dials after a lost peer connection.", ptr: func(s *Snapshot) *int64 { return &s.Reconnects }},
	PeerDownEvents: {Name: "peer_down_events_total", Help: "Failure-detector suspicion events.", ptr: func(s *Snapshot) *int64 { return &s.PeerDownEvents }},
	OrphanMsgs:     {Name: "orphan_msgs_total", Help: "Plan-less messages of an unknown traversal, dropped.", ptr: func(s *Snapshot) *int64 { return &s.OrphanMsgs }},
	CacheEvictions: {Name: "cache_evictions_total", Help: "Keys the traversal-affiliate cache evicted to admit newer ones.", ptr: func(s *Snapshot) *int64 { return &s.CacheEvictions }},
	Rejected:       {Name: "rejected_total", Help: "Request batches refused by executor admission control.", ptr: func(s *Snapshot) *int64 { return &s.Rejected }},
	QueueDepthPeak: {Name: "queue_depth_peak", Help: "High-water mark of the shared executor queue depth.", Gauge: true, Max: true, ptr: func(s *Snapshot) *int64 { return &s.QueueDepthPeak }},
	QueueLen:       {Name: "queue_len", Help: "Items currently buffered in the shared executor queue.", Gauge: true, ptr: func(s *Snapshot) *int64 { return &s.QueueLen }},
	QueueWaitNs:    {Name: "queue_wait_ns_total", Help: "Cumulative enqueue-to-pop wait of served scheduler groups.", ptr: func(s *Snapshot) *int64 { return &s.QueueWaitNs }},
	QueueGroups:    {Name: "queue_groups_total", Help: "Scheduler groups popped by executor workers.", ptr: func(s *Snapshot) *int64 { return &s.QueueGroups }},
	SeedScanned:    {Name: "seed_scanned_total", Help: "Step-0 source candidates enumerated by seed selection.", ptr: func(s *Snapshot) *int64 { return &s.SeedScanned }},
	SeedIndexHits:  {Name: "seed_index_hits_total", Help: "Seed candidates resolved via a property index lookup.", ptr: func(s *Snapshot) *int64 { return &s.SeedIndexHits }},
	VtxCacheHits:   {Name: "vtx_cache_hits_total", Help: "Decoded-vertex read-cache hits in the storage layer.", ptr: func(s *Snapshot) *int64 { return &s.VtxCacheHits }},
	VtxCacheMisses: {Name: "vtx_cache_misses_total", Help: "Decoded-vertex read-cache misses in the storage layer.", ptr: func(s *Snapshot) *int64 { return &s.VtxCacheMisses }},
	AdjCacheHits:   {Name: "adj_cache_hits_total", Help: "Materialized-adjacency read-cache hits in the storage layer.", ptr: func(s *Snapshot) *int64 { return &s.AdjCacheHits }},
	AdjCacheMisses: {Name: "adj_cache_misses_total", Help: "Materialized-adjacency read-cache misses in the storage layer.", ptr: func(s *Snapshot) *int64 { return &s.AdjCacheMisses }},
	SpansDropped:   {Name: "trace_spans_dropped_total", Help: "Execution spans evicted from the trace ring to admit newer ones.", ptr: func(s *Snapshot) *int64 { return &s.SpansDropped }},
	SpansRecorded:  {Name: "trace_spans_recorded_total", Help: "Execution spans recorded since start.", ptr: func(s *Snapshot) *int64 { return &s.SpansRecorded }},
	SpansBuffered:  {Name: "trace_spans_buffered", Help: "Execution spans currently held in the trace ring.", Gauge: true, ptr: func(s *Snapshot) *int64 { return &s.SpansBuffered }},
	TraceSummaries: {Name: "trace_summaries_buffered", Help: "Coordinator travel summaries currently buffered.", Gauge: true, ptr: func(s *Snapshot) *int64 { return &s.TraceSummaries }},
	EventsDropped:  {Name: "events_dropped_total", Help: "Control-plane journal events evicted from the event ring to admit newer ones.", ptr: func(s *Snapshot) *int64 { return &s.EventsDropped }},
	Promotions:     {Name: "promotions_total", Help: "Follower-to-primary promotions performed by this server.", ptr: func(s *Snapshot) *int64 { return &s.Promotions }},
	EpochRejects:   {Name: "epoch_rejects_total", Help: "Replication or write messages rejected for a stale epoch.", ptr: func(s *Snapshot) *int64 { return &s.EpochRejects }},
	ReplLagBytes:   {Name: "repl_lag_bytes", Help: "Shipped-minus-acked replication byte lag across partitions.", Gauge: true, ptr: func(s *Snapshot) *int64 { return &s.ReplLagBytes }},
	HandoffBytes:   {Name: "handoff_bytes_total", Help: "Snapshot bytes streamed for shard handoff and catch-up.", ptr: func(s *Snapshot) *int64 { return &s.HandoffBytes }},
	RejoinNudges:   {Name: "rejoin_nudges_total", Help: "Rejoin invitations sent to recovered peers for under-replicated partitions.", ptr: func(s *Snapshot) *int64 { return &s.RejoinNudges }},
	HeapAllocBytes: {Name: "heap_alloc_bytes", Help: "Live heap bytes at snapshot time (runtime.MemStats.HeapAlloc).", Gauge: true, Process: true, Max: true, ptr: func(s *Snapshot) *int64 { return &s.HeapAllocBytes }},
	NumGC:          {Name: "gc_cycles_total", Help: "Completed GC cycles since process start.", Process: true, Max: true, ptr: func(s *Snapshot) *int64 { return &s.NumGC }},
	GCPauseTotalNs: {Name: "gc_pause_ns_total", Help: "Cumulative stop-the-world GC pause time.", Process: true, Max: true, ptr: func(s *Snapshot) *int64 { return &s.GCPauseTotalNs }},
	GCPauseP95Ns:   {Name: "gc_pause_p95_ns", Help: "95th-percentile GC pause over the runtime's recent pause ring.", Gauge: true, Process: true, Max: true, ptr: func(s *Snapshot) *int64 { return &s.GCPauseP95Ns }},
}

// Fields enumerates every Snapshot field in declaration order, with
// exposition names, help strings and combine rules. The observability
// endpoint renders /metrics from this list.
func Fields() []Field { return slices.Clone(table[:]) }

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
