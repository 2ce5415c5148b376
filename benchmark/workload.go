package main

import (
	"fmt"
	"math/rand"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/gen"
	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
)

// datasetSeed seeds both graph generators. The graphs are data sets fixed by
// the sizes, as a scale factor fixes an LDBC or Graph500 data set; -seed
// draws the operations run against them. A graph per seed would put the
// graph's own variation (a tenth of the work per traversal between RMAT
// graphs of one scale) into every per-operation metric.
const datasetSeed = 1

// sizes fixes everything about a run that is not the seed. fullSizes is what
// BENCHMARK.json measures; the smoke test shrinks it.
type sizes struct {
	RMATScale  int // 2^scale vertices
	RMATDegree int // edge draws per vertex
	MinDegree  int // a start vertex has at least this many out-edges
	FanoutWarm int // warm-up traversals
	ColdCache  int64
	WarmCache  int64

	Meta      gen.MetaConfig
	MetaCache int64
	HotKeys   int // jobs, and as many files, that the metadata queries draw from

	Setups       int           // set-ups per untraced run; setup_s is their median
	VerifyOps    int           // traversals checked against the oracle
	OpenRate     float64       // open-loop arrivals per second
	OpenLength   time.Duration // open-loop phase length (traced audit-point run)
	OpenInFlight int           // open-loop in-flight cap; arrivals beyond it fail
}

var fullSizes = sizes{
	RMATScale: 12, RMATDegree: 8, MinDegree: 24, FanoutWarm: 16,
	ColdCache: 256 << 10, WarmCache: 64 << 20,
	Meta: gen.MetaConfig{
		Users: 1000, Jobs: 10000, Executions: 50000, Files: 25000,
		ReadFrac: 0.6, WriteFrac: 0.5, AttrBytes: 64,
	},
	MetaCache: 64 << 20, HotKeys: 1000,
	Setups: 3, VerifyOps: 32,
	OpenRate: 1000, OpenLength: 4 * time.Second, OpenInFlight: 64,
}

type workloadSpec struct {
	name    string
	why     string
	clients int
	meta    bool // metadata graph (else RMAT)
	churn   bool // a quarter of the operations are write batches
	cache   func(sizes) int64
}

var workloads = []workloadSpec{
	{name: "fanout-cold", clients: 1,
		why:   "4-hop RMAT traversals with a read cache far smaller than a partition: storage reads, deep queues and big frames do the work",
		cache: func(z sizes) int64 { return z.ColdCache }},
	{name: "fanout-warm", clients: 1,
		why:   "the same traversals with everything cached: bypasses kv and gstore.Store, so a storage-read gain must leave it flat",
		cache: func(z sizes) int64 { return z.WarmCache }},
	{name: "audit-point", clients: 2, meta: true,
		why:   "sub-millisecond provenance queries from two clients: per-traversal fixed cost, index seeds and per-message rpc cost dominate",
		cache: func(z sizes) int64 { return z.MetaCache }},
	{name: "churn-mixed", clients: 2, meta: true, churn: true,
		why:   "the audit queries with a quarter of operations replaced by 16-mutation write batches: quorum rounds, interning, WAL and cache invalidation beside reads",
		cache: func(z sizes) int64 { return z.MetaCache }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// --- operations --------------------------------------------------------

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one client operation: a traversal to compile and submit, or a
// batch of named mutations.
type op struct {
	kind   opKind
	travel *query.Travel
	muts   []core.NamedMutation
}

// source yields one closed-loop client's operations. It depends only on the
// seed and on how many operations it has yielded, so replaying it after the
// run reproduces every write the client made.
type source interface {
	next() op
}

const fanoutHops = 4

// fanoutSource cycles over the start vertices.
type fanoutSource struct {
	starts []model.VertexID
	i      int
}

func (s *fanoutSource) next() op {
	t := query.V(s.starts[s.i%len(s.starts)])
	s.i++
	for h := 0; h < fanoutHops; h++ {
		t = t.E("link")
	}
	return op{travel: t}
}

// metaSource is the audit mix, with write batches mixed in when churn is set.
type metaSource struct {
	r      *rand.Rand
	seed   int64
	client int
	churn  bool
	g      *metaGraph
	batch  int
}

const (
	batchFiles = 12 // NamedAddVertex per write batch
	batchEdges = 3  // NamedAddEdge per write batch
	// delLag is how many batches back the batch's one NamedDelEdge reaches:
	// it removes the first write edge that batch added.
	delLag = 4
)

func (s *metaSource) next() op {
	if s.churn && s.r.Intn(4) == 0 {
		return op{kind: opWrite, muts: s.writeBatch()}
	}
	return s.g.read(s.r.Intn(2 * s.g.hotKeys))
}

// read is the audit query on hot key k: a job's written files for the first
// hotKeys keys, a file's readers for the rest. Queries stay inside a working
// set the read cache holds after warm-up, so that storage reads are not
// what this workload measures.
func (g *metaGraph) read(k int) op {
	if k < g.hotKeys {
		job := g.stats.FirstJob + model.VertexID(k)
		return op{travel: query.V(job).E("hasExecutions").E("write").Ea("ts", property.RANGE, 0, 1<<19)}
	}
	// File popularity is Zipf by index; the hottest hundredth are left out,
	// because one readBy hop from such a file is a fanout of thousands and
	// this workload is the small-traversal corner.
	file := baseFile(g.stats.Files/100 + k - g.hotKeys)
	return op{travel: query.VLabel("File").Va("name", property.EQ, file).E("readBy").Va("model", property.IN, "A", "B")}
}

// sweepSource reads each hot key once, the keys dealt round-robin to the
// clients: the warm-up that fills the read cache.
type sweepSource struct {
	g               *metaGraph
	client, clients int
	i               int
}

func (s *sweepSource) next() op {
	k := s.i*s.clients + s.client
	s.i++
	return s.g.read(k % (2 * s.g.hotKeys))
}

// baseFile is the name property gen.Metadata gives the i-th file.
func baseFile(i int) string { return fmt.Sprintf("/data/set-%06d.h5", i) }

func churnFile(client, batch, j int) string {
	return fmt.Sprintf("/churn/c%d/%06d-%02d.h5", client, batch, j)
}

// churnExec picks the execution that write edge j of a batch starts from.
// It is a function of its arguments so that a later batch can name the edge
// again to delete it.
func (s *metaSource) churnExec(batch, j int) string {
	h := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(s.client)<<40 + uint64(batch)<<8 + uint64(j)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return execName(int(h % uint64(s.g.stats.Executions)))
}

func (s *metaSource) writeBatch() []core.NamedMutation {
	b := s.batch
	s.batch++
	muts := make([]core.NamedMutation, 0, batchFiles+batchEdges+1)
	for j := 0; j < batchFiles; j++ {
		name := churnFile(s.client, b, j)
		muts = append(muts, core.NamedMutation{Op: core.NamedAddVertex, Name: name, Label: "File", Props: property.Map{
			"name": property.String(name),
			"size": property.Int(int64(s.r.Intn(1 << 30))),
		}})
	}
	for j := 0; j < batchEdges; j++ {
		muts = append(muts, core.NamedMutation{Op: core.NamedAddEdge, Label: "write",
			Src: s.churnExec(b, j), Dst: churnFile(s.client, b, j),
			Props: property.Map{"ts": property.Int(int64(s.r.Intn(1 << 20)))}})
	}
	if b >= delLag {
		muts = append(muts, core.NamedMutation{Op: core.NamedDelEdge, Label: "write",
			Src: s.churnExec(b-delLag, 0), Dst: churnFile(s.client, b-delLag, 0)})
	}
	return muts
}

// --- graphs ------------------------------------------------------------

// collector gathers a generator's output as id-addressed mutations, and
// out-degrees for picking fanout start vertices.
type collector struct {
	muts   []gstore.Mutation
	remap  func(model.VertexID) model.VertexID
	degree map[model.VertexID]int
}

func (c *collector) id(v model.VertexID) model.VertexID {
	if c.remap != nil {
		return c.remap(v)
	}
	return v
}

func (c *collector) AddVertex(v model.Vertex) error {
	v.ID = c.id(v.ID)
	c.muts = append(c.muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: v})
	return nil
}

func (c *collector) AddEdge(e model.Edge) error {
	e.Src, e.Dst = c.id(e.Src), c.id(e.Dst)
	if c.degree != nil {
		c.degree[e.Src]++
	}
	c.muts = append(c.muts, gstore.Mutation{Op: gstore.OpPutEdge, Edge: e})
	return nil
}

// rmatGraph generates the fanout graph and puts its start vertices, every
// vertex of out-degree MinDegree or more, in an order drawn with seed. The
// work of a traversal differs between start vertices by a few tenths, so a
// run goes through as many as it has time for, not a handful again and again.
func rmatGraph(z sizes, seed int64) ([]gstore.Mutation, []model.VertexID, error) {
	col := &collector{degree: make(map[model.VertexID]int)}
	if _, err := gen.RMAT(gen.RMAT1(z.RMATScale, z.RMATDegree, datasetSeed), col); err != nil {
		return nil, nil, err
	}
	var hubs []model.VertexID
	for v := model.VertexID(0); v < 1<<z.RMATScale; v++ {
		if col.degree[v] >= z.MinDegree {
			hubs = append(hubs, v)
		}
	}
	if len(hubs) < z.FanoutWarm {
		return nil, nil, fmt.Errorf("only %d vertices of out-degree >= %d, need %d", len(hubs), z.MinDegree, z.FanoutWarm)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(hubs), func(i, j int) { hubs[i], hubs[j] = hubs[j], hubs[i] })
	return col.muts, hubs, nil
}

func execName(i int) string { return fmt.Sprintf("exec-%07d", i) }

// metaGraph is the metadata graph as loaded. Executions are stored under
// interned ids so that later write batches can name them; every other
// entity keeps the generator's id.
type metaGraph struct {
	stats   gen.MetaStats
	hotKeys int
	execIDs []model.VertexID
}

func (g *metaGraph) remap(v model.VertexID) model.VertexID {
	if v >= g.stats.FirstExecution && v < g.stats.FirstFile {
		return g.execIDs[v-g.stats.FirstExecution]
	}
	return v
}

// metaMutations generates the metadata graph with executions renamed to
// execIDs.
func metaMutations(z sizes, execIDs []model.VertexID) ([]gstore.Mutation, *metaGraph, error) {
	cfg := z.Meta
	cfg.Seed = datasetSeed
	g := &metaGraph{execIDs: execIDs, hotKeys: z.HotKeys}
	g.stats.FirstExecution = model.VertexID(cfg.Users + cfg.Jobs)
	g.stats.FirstFile = g.stats.FirstExecution + model.VertexID(cfg.Executions)
	col := &collector{remap: g.remap}
	stats, err := gen.Metadata(cfg, col)
	g.stats = stats
	return col.muts, g, err
}
