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
// engine also runs over TCP via cmd/graphtrek-server, and replication,
// quorum writes and failover run only there (-replicas); gtq -load and
// graphtrek-gen -connect write to such a cluster.
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

// Options configures a simulated cluster. Everything else is fixed in
// NewCluster; the TCP daemon (cmd/graphtrek-server) exposes the rest —
// replication, failure-detector timing, indexes, the read cache — as flags.
type Options struct {
	// Servers is the number of backend servers (required, >= 1).
	Servers int
	// DiskService is the virtual disk's per-vertex-access service time of
	// one cold spindle, the paper's hard-disk setup. Zero disables simulated
	// latency (fastest; unit-test mode); a positive value also turns on a
	// 2 ms flush linger and a 1 ms client round trip.
	DiskService time.Duration
	// Stragglers, when set, injects external interference.
	Stragglers *StragglerPlan
	// StoreDir, when non-empty, backs each server with a persistent
	// kv/gstore partition under StoreDir/server-N; otherwise partitions
	// live in memory.
	StoreDir string
	// TravelTimeout is the coordinator failure-detection deadline.
	TravelTimeout time.Duration
	// Partitioner overrides the default edge-cut hash partitioner, e.g.
	// with partition.NewBalanced for degree-aware placement. Its N() must
	// equal Servers.
	Partitioner partition.Partitioner
	// SlowTravelNs makes coordinators capture the full causal trace DAG of
	// any traversal at least this slow end-to-end (nanoseconds): spans are
	// pulled from every server, assembled with critical-path attribution,
	// and retained in a bounded ring per server — see core.Server.SlowTravels
	// and the obs /traces/slow endpoint. Zero or negative disables capture.
	SlowTravelNs int64
}

// Cluster is an in-process GraphTrek deployment: N backend servers plus one
// client endpoint on an asynchronous message fabric.
type Cluster struct {
	part    partition.Partitioner
	fabric  *rpc.Fabric
	servers []*core.Server
	stores  []gstore.Graph
	disks   []*simio.Disk
	client  *core.Client
	closed  bool
}

// NewCluster assembles and starts a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Servers < 1 {
		return nil, errors.New("graphtrek: Options.Servers must be at least 1")
	}
	part := opts.Partitioner
	if part == nil {
		part = partition.NewHash(opts.Servers)
	} else if part.N() != opts.Servers {
		return nil, fmt.Errorf("graphtrek: partitioner covers %d servers, cluster has %d", part.N(), opts.Servers)
	}
	// With a simulated disk, flushes linger a couple of OS timer ticks to
	// consolidate batches, and the client-side baseline pays a round trip
	// per step per owner (Fig 2a).
	var linger, rtt time.Duration
	if opts.DiskService > 0 {
		linger, rtt = 2*time.Millisecond, time.Millisecond
	}
	c := &Cluster{part: part, fabric: rpc.NewFabric(opts.Servers + 1)}
	for i := 0; i < opts.Servers; i++ {
		var store gstore.Graph
		if opts.StoreDir != "" {
			s, err := gstore.Open(filepath.Join(opts.StoreDir, fmt.Sprintf("server-%02d", i)), kv.Options{})
			if err != nil {
				c.Close()
				return nil, err
			}
			store = s
		} else {
			store = gstore.NewMemStore()
		}
		c.stores = append(c.stores, store)
		disk := simio.NewDisk(opts.DiskService, 1)
		if opts.Stragglers != nil {
			disk.AttachStragglers(i, opts.Stragglers)
		}
		c.disks = append(c.disks, disk)
		srv := core.NewServer(core.Config{
			ID:                i,
			Store:             store,
			Part:              part,
			Disk:              disk,
			FlushLinger:       linger,
			TravelTimeout:     opts.TravelTimeout,
			HeartbeatInterval: 500 * time.Millisecond,
			SlowTravelNs:      opts.SlowTravelNs,
		})
		srv.Bind(c.fabric.Endpoint(i))
		if err := c.fabric.Endpoint(i).Start(srv.Handle); err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	c.client = core.NewClient(part)
	c.client.Bind(c.fabric.Endpoint(opts.Servers))
	c.client.SetRTT(rtt)
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
func (c *Cluster) Servers() int { return len(c.servers) }

// AddVertex stores a vertex on its owning server.
func (c *Cluster) AddVertex(v Vertex) error {
	return c.stores[c.part.Owner(v.ID)].PutVertex(v)
}

// AddEdge stores a directed edge with its source vertex (edge-cut).
func (c *Cluster) AddEdge(e Edge) error {
	return c.stores[c.part.Owner(e.Src)].PutEdge(e)
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
