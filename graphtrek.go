// Package graphtrek is a Go reproduction of "GraphTrek: Asynchronous Graph
// Traversal for Property Graph-Based Metadata Management" (Dai et al.,
// IEEE CLUSTER 2015): a distributed property-graph store for HPC rich
// metadata with a server-side, asynchronous traversal engine, the GTravel
// traversal language, and the paper's two asynchronous-traversal
// optimizations — traversal-affiliate caching and execution scheduling /
// merging — alongside synchronous and client-side baselines.
//
// The top-level API assembles a simulated cluster in one process: each
// backend server gets its own graph partition, traversal engine and
// virtual disk, connected by an asynchronous message fabric. The same
// engine also runs over TCP via cmd/graphtrek-server.
//
// Quick start:
//
//	c, err := graphtrek.NewCluster(graphtrek.Options{Servers: 4})
//	defer c.Close()
//	c.Load(func(sink gen.Sink) error { ... })          // or c.AddVertex/AddEdge
//	res, err := c.Run(
//	    graphtrek.V(user).
//	        E("run").Ea("ts", graphtrek.RANGE, t0, t1).
//	        E("read").Va("type", graphtrek.EQ, "text").Rtn(),
//	    graphtrek.ModeGraphTrek)
package graphtrek

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/gen"
	"graphtrek/internal/gstore"
	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
)

// Re-exported building blocks, so typical applications only import this
// package.
type (
	// VertexID identifies a vertex across the cluster.
	VertexID = model.VertexID
	// Vertex is one property-graph entity.
	Vertex = model.Vertex
	// Edge is one directed, labeled relationship.
	Edge = model.Edge
	// Props is a property map attached to vertices and edges.
	Props = property.Map
	// Travel is a GTravel traversal under construction.
	Travel = query.Travel
	// Plan is a compiled traversal.
	Plan = query.Plan
	// Mode selects a traversal engine.
	Mode = core.Mode
	// Metrics is a per-server engine counter snapshot.
	Metrics = core.Metrics
	// StragglerPlan injects external interference (§VII-C).
	StragglerPlan = simio.StragglerPlan
	// Value is a typed property value.
	Value = property.Value
	// Mutation is one raw (integer-addressed) write operation; batches of
	// these feed Client().Write and Client().BulkLoad.
	Mutation = gstore.Mutation
	// NamedMutation is one name-addressed write operation for
	// Client().Mutate, lowered through the interning dictionary.
	NamedMutation = core.NamedMutation
	// WriteOptions bounds quorum writes (timeout, retries).
	WriteOptions = core.WriteOptions
	// BulkOptions configures Client().BulkLoad batching.
	BulkOptions = core.BulkOptions
)

// Raw mutation opcodes for Client().Write / Client().BulkLoad batches.
const (
	OpPutVertex = gstore.OpPutVertex
	OpDelVertex = gstore.OpDelVertex
	OpPutEdge   = gstore.OpPutEdge
	OpDelEdge   = gstore.OpDelEdge
)

// Name-addressed mutation opcodes for Client().Mutate batches.
const (
	NamedAddVertex = core.NamedAddVertex
	NamedDelVertex = core.NamedDelVertex
	NamedAddEdge   = core.NamedAddEdge
	NamedDelEdge   = core.NamedDelEdge
)

// String makes a string property value.
func String(s string) Value { return property.String(s) }

// Int makes an integer property value (timestamps, sizes, ids).
func Int(i int64) Value { return property.Int(i) }

// Float makes a float property value.
func Float(f float64) Value { return property.Float(f) }

// Bool makes a boolean property value.
func Bool(b bool) Value { return property.Bool(b) }

// Filter operators of the GTravel language.
const (
	// EQ matches values equal to the argument.
	EQ = property.EQ
	// IN matches values contained in the argument set.
	IN = property.IN
	// RANGE matches values within [lo, hi].
	RANGE = property.RANGE
)

// Traversal engine modes.
const (
	// ModeSync is the synchronous baseline (Sync-GT).
	ModeSync = core.ModeSync
	// ModeAsyncPlain is unoptimized asynchronous traversal (Async-GT).
	ModeAsyncPlain = core.ModeAsyncPlain
	// ModeGraphTrek is the paper's optimized asynchronous engine.
	ModeGraphTrek = core.ModeGraphTrek
	// ModeClientSide is the client-driven baseline of Fig 2a.
	ModeClientSide = core.ModeClientSide
	// ModeAsyncCacheOnly ablates GraphTrek to caching only.
	ModeAsyncCacheOnly = core.ModeAsyncCacheOnly
	// ModeAsyncSchedOnly ablates GraphTrek to scheduling/merging only.
	ModeAsyncSchedOnly = core.ModeAsyncSchedOnly
)

// V starts a traversal from explicit source vertices (GTravel v()).
func V(ids ...VertexID) *Travel { return query.V(ids...) }

// LabelKey is the reserved Va() key that filters on a vertex's type label.
const LabelKey = query.LabelKey

// NewStragglerPlan returns an empty interference plan; see
// StragglerPlan.AddRule and simio.PaperPlan.
func NewStragglerPlan() *StragglerPlan { return simio.NewStragglerPlan() }

// PaperStragglers builds the §VII-C configuration: one straggler per listed
// step, placed on the given servers round-robin, each delaying `count`
// vertex accesses by `delay`.
func PaperStragglers(servers []int, steps []int, delay time.Duration, count int) *StragglerPlan {
	return simio.PaperPlan(servers, steps, delay, count)
}

// Options configures a simulated cluster.
type Options struct {
	// Servers is the number of backend servers (required, >= 1).
	Servers int
	// DiskService is the virtual disk's per-vertex-access service time.
	// Zero disables simulated latency (fastest; unit-test mode).
	DiskService time.Duration
	// DiskParallelism is the number of concurrent I/O slots per server
	// (default 1 — a single cold spindle, the paper's hard-disk setup).
	DiskParallelism int
	// Workers sizes each server's shared executor pool: the fixed number
	// of worker goroutines multiplexing every concurrent traversal on that
	// server (per server, not per traversal).
	Workers int
	// MaxQueueDepth bounds each server's executor queue (total buffered
	// requests across all traversals). Batches beyond the bound are
	// rejected and surface as retryable traversal errors. Zero or negative
	// means unbounded.
	MaxQueueDepth int
	// CacheCap bounds each server's traversal-affiliate cache.
	CacheCap int
	// BatchSize caps dispatch message size (entries per message).
	BatchSize int
	// FlushLinger delays quiescence flushes to consolidate outgoing
	// batches. Zero derives a default from DiskService.
	FlushLinger time.Duration
	// Stragglers, when set, injects external interference.
	Stragglers *StragglerPlan
	// StoreDir, when non-empty, backs each server with a persistent
	// kv/gstore partition under StoreDir/server-N; otherwise partitions
	// live in memory.
	StoreDir string
	// KVOptions tunes the persistent stores (ignored for in-memory).
	KVOptions kv.Options
	// TravelTimeout is the coordinator failure-detection deadline.
	TravelTimeout time.Duration
	// HeartbeatInterval drives the backend failure detector: crashed or
	// partitioned peers are suspected after SuspectAfter of silence and
	// traversals touching them fail immediately for retry, instead of
	// waiting out TravelTimeout. Zero selects 500ms; negative disables
	// the detector.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence threshold before a peer is suspected
	// dead (default 3 x HeartbeatInterval).
	SuspectAfter time.Duration
	// InboxSize is the per-node fabric inbox capacity.
	InboxSize int
	// ClientRTT models the client-server network round trip, which the
	// client-side traversal baseline pays per step per owner (Fig 2a).
	// Zero derives a default from DiskService.
	ClientRTT time.Duration
	// Partitioner overrides the default edge-cut hash partitioner, e.g.
	// with partition.NewBalanced for degree-aware placement. Its N() must
	// equal Servers.
	Partitioner partition.Partitioner
	// TraceCap sizes each server's execution-trace ring buffer (spans per
	// server). Zero selects the engine default (8192); negative disables
	// per-execution tracing.
	TraceCap int
	// SlowTravelNs makes coordinators capture the full causal trace DAG of
	// any traversal at least this slow end-to-end (nanoseconds): spans are
	// pulled from every server, assembled with critical-path attribution,
	// and retained in a bounded ring per server — see core.Server.SlowTravels
	// and the obs /traces/slow endpoint. Zero or negative disables capture.
	SlowTravelNs int64
	// IndexKeys lists property keys to secondary-index on every partition
	// at boot, before the engines see traffic, so step-0 va() filters on
	// them seed via index pushdown instead of a label scan.
	IndexKeys []string
	// ReadCacheBytes, when positive, wraps each partition in a sharded
	// LRU read cache of roughly this many bytes (decoded vertices +
	// materialized adjacency lists), the stand-in for the RocksDB block
	// cache of §VI. Zero disables the cache.
	ReadCacheBytes int64
	// ReplicationFactor, when >= 2, gives every partition a primary plus
	// ReplicationFactor-1 follower replicas: quorum-acknowledged writes via
	// Client.Write, automatic epoch-fenced failover when the failure
	// detector condemns a primary, and online shard handoff via
	// Server.JoinPartition. Each node holds its own route view and converges via
	// gossip. The default (0 or 1) runs the seed cluster's unreplicated
	// layout, bit-for-bit identical behavior. Incompatible with a custom
	// Partitioner.
	ReplicationFactor int
	// WriteTimeout bounds how long a primary holds a quorum write before
	// failing it as retryable (default 5s).
	WriteTimeout time.Duration
}

// Cluster is an in-process GraphTrek deployment: N backend servers plus one
// client endpoint on an asynchronous message fabric.
type Cluster struct {
	opts    Options
	part    partition.Partitioner
	fabric  *rpc.Fabric
	servers []*core.Server
	stores  []gstore.Graph
	disks   []*simio.Disk
	client  *core.Client
	// croute is the client's route view (replicated clusters only). Every
	// server has a view of its own, booted from the same identity table;
	// failover and handoff move them apart and gossip re-converges them,
	// like a real deployment.
	croute *route.View
	closed bool
}

// NewCluster assembles and starts a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Servers < 1 {
		return nil, errors.New("graphtrek: Options.Servers must be at least 1")
	}
	if opts.DiskParallelism <= 0 {
		opts.DiskParallelism = 1
	}
	if opts.FlushLinger == 0 && opts.DiskService > 0 {
		// Consolidate batches arriving within a couple of OS timer ticks.
		opts.FlushLinger = 2 * time.Millisecond
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.HeartbeatInterval < 0 {
		opts.HeartbeatInterval = 0 // detector disabled
	}
	replicated := opts.ReplicationFactor >= 2
	part := opts.Partitioner
	if part == nil {
		part = partition.NewHash(opts.Servers)
	} else if part.N() != opts.Servers {
		return nil, fmt.Errorf("graphtrek: partitioner covers %d servers, cluster has %d", part.N(), opts.Servers)
	} else if replicated {
		return nil, errors.New("graphtrek: ReplicationFactor and a custom Partitioner are mutually exclusive (the route view is the partitioner)")
	}
	c := &Cluster{
		opts:   opts,
		part:   part,
		fabric: rpc.NewFabric(opts.Servers+1, opts.InboxSize),
	}
	if replicated {
		c.croute = route.NewView(route.Identity(opts.Servers, opts.ReplicationFactor))
		c.part = c.croute
	}
	for i := 0; i < opts.Servers; i++ {
		var store gstore.Graph
		if opts.StoreDir != "" {
			s, err := gstore.Open(filepath.Join(opts.StoreDir, fmt.Sprintf("server-%02d", i)), opts.KVOptions)
			if err != nil {
				c.Close()
				return nil, err
			}
			store = s
		} else {
			store = gstore.NewMemStore()
		}
		if opts.ReadCacheBytes > 0 {
			store = gstore.NewCachedGraph(store, opts.ReadCacheBytes)
		}
		for _, key := range opts.IndexKeys {
			if err := store.(gstore.PropertyIndex).EnableIndex(key); err != nil {
				c.stores = append(c.stores, store) // let Close release it
				c.Close()
				return nil, err
			}
		}
		c.stores = append(c.stores, store)
		disk := simio.NewDisk(opts.DiskService, opts.DiskParallelism)
		if opts.Stragglers != nil {
			disk.AttachStragglers(i, opts.Stragglers)
		}
		c.disks = append(c.disks, disk)
		srvPart := c.part
		var srvRoute *route.View
		if replicated {
			srvRoute = route.NewView(route.Identity(opts.Servers, opts.ReplicationFactor))
			srvPart = srvRoute
		}
		srv := core.NewServer(core.Config{
			ID:                i,
			Store:             store,
			Part:              srvPart,
			Route:             srvRoute,
			WriteTimeout:      opts.WriteTimeout,
			ReplicationFactor: opts.ReplicationFactor,
			Disk:              disk,
			Workers:           opts.Workers,
			MaxQueueDepth:     opts.MaxQueueDepth,
			CacheCap:          opts.CacheCap,
			BatchSize:         opts.BatchSize,
			FlushLinger:       opts.FlushLinger,
			TravelTimeout:     opts.TravelTimeout,
			HeartbeatInterval: opts.HeartbeatInterval,
			SuspectAfter:      opts.SuspectAfter,
			TraceCap:          opts.TraceCap,
			SlowTravelNs:      opts.SlowTravelNs,
		})
		srv.Bind(c.fabric.Endpoint(i))
		if err := c.fabric.Endpoint(i).Start(srv.Handle); err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	c.client = core.NewClient(c.part)
	c.client.Bind(c.fabric.Endpoint(opts.Servers))
	if opts.ClientRTT == 0 && opts.DiskService > 0 {
		opts.ClientRTT = time.Millisecond
	}
	c.client.SetRTT(opts.ClientRTT)
	if err := c.fabric.Endpoint(opts.Servers).Start(c.client.Handle); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close shuts the cluster down and closes the stores.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, s := range c.servers {
		s.Close()
	}
	c.fabric.Close()
	var firstErr error
	for _, st := range c.stores {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Servers returns the cluster size.
func (c *Cluster) Servers() int { return c.opts.Servers }

// AddVertex stores a vertex on its owning server — on every replica of its
// partition when the cluster is replicated (bulk loading writes the stores
// directly, bypassing the quorum write path; use Client().Write for
// runtime mutations).
func (c *Cluster) AddVertex(v Vertex) error {
	for _, s := range c.replicaStores(v.ID) {
		if err := s.PutVertex(v); err != nil {
			return err
		}
	}
	return nil
}

// AddEdge stores a directed edge with its source vertex (edge-cut), on
// every replica of the source's partition when the cluster is replicated.
func (c *Cluster) AddEdge(e Edge) error {
	for _, s := range c.replicaStores(e.Src) {
		if err := s.PutEdge(e); err != nil {
			return err
		}
	}
	return nil
}

// replicaStores lists the stores holding a vertex's partition: just the
// owner on unreplicated clusters, the full replica set otherwise.
func (c *Cluster) replicaStores(id VertexID) []gstore.Graph {
	if c.croute == nil {
		return c.stores[c.part.Owner(id) : c.part.Owner(id)+1]
	}
	a := c.croute.Assignment(c.croute.Partition(id))
	out := make([]gstore.Graph, 0, 1+len(a.Followers))
	for _, r := range a.Replicas() {
		out = append(out, c.stores[r])
	}
	return out
}

// Sink returns a generator sink that routes elements to their owners; pass
// it to gen.RMAT or gen.Metadata.
func (c *Cluster) Sink() gen.Sink {
	return gen.Funcs{Vertex: c.AddVertex, Edge: c.AddEdge}
}

// Load runs a generator-style loader against the cluster's sink.
func (c *Cluster) Load(load func(gen.Sink) error) error {
	return load(c.Sink())
}

// Run submits a traversal under the given engine mode and returns the
// result vertices, sorted and deduplicated.
func (c *Cluster) Run(t *Travel, mode Mode) ([]VertexID, error) {
	return c.client.Submit(t, core.SubmitOptions{Mode: mode, Coordinator: -1})
}

// RunPlan submits a compiled plan with full submission options.
func (c *Cluster) RunPlan(p *Plan, opts core.SubmitOptions) ([]VertexID, error) {
	return c.client.SubmitPlan(p, opts)
}

// RunAsync starts a server-side traversal and returns a handle that can
// poll the coordinator's §IV-C progress report while the cluster works.
func (c *Cluster) RunAsync(t *Travel, mode Mode) (*core.Handle, error) {
	plan, err := t.Compile()
	if err != nil {
		return nil, err
	}
	return c.client.SubmitPlanAsync(plan, core.SubmitOptions{Mode: mode, Coordinator: -1})
}

// Client exposes the underlying client: explicit submission options, and on
// replicated clusters the write path and status pulls.
func (c *Cluster) Client() *core.Client { return c.client }

// Server returns backend server i's engine, exposing its metrics, trace
// buffers and queue gauges (e.g. for an obs.Handler).
func (c *Cluster) Server(i int) *core.Server { return c.servers[i] }

// ServerMetrics returns each server's engine counters, indexed by server.
func (c *Cluster) ServerMetrics() []Metrics {
	out := make([]Metrics, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.Metrics()
	}
	return out
}

// ResetDisks restores every simulated disk to the cold-start state the
// paper's evaluations begin each traversal from. Call it between timed
// traversals that share one cluster.
func (c *Cluster) ResetDisks() {
	for _, d := range c.disks {
		d.Reset()
	}
}
