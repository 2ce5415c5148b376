// Package core implements the paper's primary contribution: the GraphTrek
// server-side traversal engines. One Server runs next to each backend
// storage partition; a traversal is submitted by a Client to one server,
// which becomes that traversal's coordinator (§IV-A). Four execution modes
// share the same storage, language and message plumbing:
//
//   - ModeSync (Sync-GT, §VI): level-synchronous BFS with a controller
//     barrier between steps; data still flows server-to-server.
//   - ModeAsyncPlain (Async-GT, §VII): plain asynchronous execution —
//     servers forward the traversal immediately, with no dedup cache, no
//     priority scheduling, no merging.
//   - ModeGraphTrek: asynchronous execution plus the two §V optimizations
//     (traversal-affiliate caching; execution scheduling and merging).
//   - ModeClientSide (Fig 2a): the client drives each step itself,
//     aggregating intermediate frontiers — the design the paper argues
//     against, implemented as a baseline.
//
// Correctness machinery shared by the server-side modes:
//
//   - status and progress tracing (§IV-C): every traversal execution is
//     registered (created) at the coordinator before it can be observed
//     terminating, and a traversal completes exactly when the created and
//     terminated sets coincide — a quiescence-detection ledger that
//     tolerates cross-server message reordering;
//   - traversal return (§IV-D): rtn()-marked vertices redirect downstream
//     reporting destinations, so a marked vertex is returned iff one of its
//     descendant paths reaches the end of the chain;
//   - silent-failure detection: each server runs one control loop that
//     beacons heartbeats, suspects silent peers, and fails every traversal
//     it coordinates whose ledger stops making progress (e.g. a server
//     drops requests).
package core

import (
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/partition"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
)

// Mode selects the traversal execution strategy. The value travels in
// StartTravel messages, so the numeric codes are part of the wire format.
type Mode uint8

const (
	// ModeSync is the synchronous baseline (Sync-GT).
	ModeSync Mode = iota
	// ModeAsyncPlain is asynchronous traversal without optimizations
	// (Async-GT).
	ModeAsyncPlain
	// ModeGraphTrek is asynchronous traversal with traversal-affiliate
	// caching and execution scheduling/merging — the paper's system.
	ModeGraphTrek
	// ModeClientSide is the client-driven baseline of Fig 2a.
	ModeClientSide
	// ModeAsyncCacheOnly ablates GraphTrek: cache on, scheduling and
	// merging off.
	ModeAsyncCacheOnly
	// ModeAsyncSchedOnly ablates GraphTrek: scheduling and merging on,
	// cache off.
	ModeAsyncSchedOnly
)

// String names the mode the way the paper's tables do.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "Sync-GT"
	case ModeAsyncPlain:
		return "Async-GT"
	case ModeGraphTrek:
		return "GraphTrek"
	case ModeClientSide:
		return "Client-GT"
	case ModeAsyncCacheOnly:
		return "Async+Cache"
	case ModeAsyncSchedOnly:
		return "Async+Sched"
	default:
		return "Unknown"
	}
}

// tuning is the feature matrix a mode expands to on each server.
type tuning struct {
	useCache bool // traversal-affiliate caching (§V-A)
	priority bool // smallest-step-first scheduling (§V-B)
	merge    bool // same-vertex execution merging (§V-B)
	gated    bool // controller barrier between steps (Sync-GT)
	// clientDriven: the client drives each step itself (Fig 2a); servers
	// answer VisitReq batches and never coordinate, dispatch or forward.
	clientDriven bool
}

// tuning expands a mode into its feature bits. It is the one place a Mode
// constant is compared: everything else branches on the bits, so a new mode
// is a new row here and nothing else. The Mode value itself survives on
// travelState and ledger only to be forwarded on the wire and printed.
func (m Mode) tuning() tuning {
	switch m {
	case ModeSync:
		// Level-synchronous BFS deduplicates its frontier each step; the
		// cache provides exactly that visited-set behaviour.
		return tuning{useCache: true, gated: true}
	case ModeGraphTrek:
		return tuning{useCache: true, priority: true, merge: true}
	case ModeAsyncCacheOnly:
		return tuning{useCache: true}
	case ModeAsyncSchedOnly:
		return tuning{priority: true, merge: true}
	case ModeClientSide:
		return tuning{clientDriven: true}
	default: // ModeAsyncPlain
		return tuning{}
	}
}

// Config configures one backend server.
type Config struct {
	// ID is this server's node id on the transport (0..Servers-1).
	ID int
	// Store is the local graph partition.
	Store gstore.Graph
	// Part maps vertices to owning servers. Node ids 0..Part.N()-1 must be
	// backend servers; higher transport ids are clients.
	Part partition.Partitioner
	// Disk is the simulated storage device; nil means no simulated
	// latency.
	Disk *simio.Disk
	// Workers sizes the server's shared executor pool (default 4): the
	// fixed number of goroutines draining the two-level scheduler on behalf
	// of every concurrent traversal. Per server, not per traversal — K
	// in-flight traversals still cost exactly Workers goroutines.
	Workers int
	// MaxQueueDepth bounds the executor queue's total buffered items across
	// all traversals (admission control). A batch that would exceed it is
	// rejected whole and surfaces as a retryable traversal error at the
	// client. Zero or negative means unbounded.
	MaxQueueDepth int
	// CacheCap bounds the traversal-affiliate cache (default 1<<20
	// entries; negative means unbounded).
	CacheCap int
	// BatchSize flushes a dispatch outbox early once it holds this many
	// entries (default 4096).
	BatchSize int
	// FlushLinger delays the quiescence-triggered outbox flush briefly so
	// batches arriving close together consolidate into one outgoing wave
	// per step instead of fragmenting. Zero disables the linger (fastest
	// for latency-free unit tests); simulated-disk deployments use a few
	// service times.
	FlushLinger time.Duration
	// TravelTimeout fails a coordinated traversal whose ledger has seen no
	// report for this long (default 30s; zero selects the default,
	// negative disables). The control loop checks it at least every
	// TravelTimeout/4. It is the coarse backstop; with heartbeats enabled,
	// crashed peers are detected within a couple of HeartbeatInterval.
	TravelTimeout time.Duration
	// HeartbeatInterval enables the backend failure detector: each
	// backend beacons liveness to every other backend at this interval,
	// and a peer silent for SuspectAfter is suspected dead. Coordinators
	// then fail traversals with live executions on the suspect
	// immediately — peer-specific error, fast client retry — instead of
	// waiting out TravelTimeout. Zero disables the detector.
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a backend may stay silent before being
	// suspected dead (default 3 × HeartbeatInterval).
	SuspectAfter time.Duration
	// TraceCap sizes the server's execution-trace ring buffer: the last
	// TraceCap terminated executions keep a span (step, frontier size,
	// queue wait, cache/merge disposition, wall time) for the observability
	// endpoints and gtq -profile. Zero selects the default (8192); negative
	// disables tracing entirely.
	TraceCap int
	// SlowTravelNs makes a coordinator capture the full causal trace DAG of
	// any traversal whose end-to-end latency reaches this many nanoseconds:
	// it pulls every server's raw spans, assembles them, and retains the
	// result in a small bounded ring (see Server.SlowTravels and the obs
	// /traces/slow endpoint). Zero or negative disables capture. Requires
	// tracing (TraceCap >= 0) to observe anything.
	SlowTravelNs int64
	// Route, when set, enables per-partition replication, epoch-based
	// failover and online shard handoff: the view publishes the
	// epoch-stamped partition→(primary, followers) table every node in the
	// cluster shares via gossip. Part should be the same *route.View so
	// traversal dispatch follows failover automatically. Nil (the default)
	// disables replication entirely — identical behavior to the seed
	// cluster.
	Route *route.View
	// WriteTimeout bounds how long a primary holds a client write while
	// collecting its replication quorum before failing it as retryable
	// (default 5s).
	WriteTimeout time.Duration
	// ReplicationFactor is the replica count each partition was laid out
	// with. Primaries use it to decide whether a recovered peer should be
	// invited back into a replica set that shrank during its outage; zero
	// means unknown, and every recovered ex-replica is invited back.
	ReplicationFactor int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CacheCap == 0 {
		c.CacheCap = 1 << 20
	}
	if c.CacheCap < 0 {
		c.CacheCap = 0 // cache.New treats 0 as unbounded
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.TravelTimeout == 0 {
		c.TravelTimeout = 30 * time.Second
	}
	if c.TraceCap == 0 {
		c.TraceCap = 8192
	}
	if c.HeartbeatInterval > 0 && c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	return c
}

// Metrics re-exports the per-server counter snapshot type.
type Metrics = metrics.Snapshot

// transport is the narrowed rpc surface the engine uses.
type transport = rpc.Transport

// scanBlock is the simulated-disk block id charged for index scans (seed
// selection); it is outside the vertex-id space.
const scanBlock = ^uint64(0)
