package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/query"
)

const opTimeout = 30 * time.Second

// instance is one loaded cluster and what the harness must remember about
// its graph to drive and check it.
type instance struct {
	spec   workloadSpec
	z      sizes
	seed   int64
	c      *cluster
	tr     *tracer
	starts []model.VertexID // fanout start vertices
	meta   *metaGraph
}

func baseMutations(spec workloadSpec, z sizes, seed int64, execIDs []model.VertexID) ([]gstore.Mutation, []model.VertexID, *metaGraph, error) {
	if spec.meta {
		muts, g, err := metaMutations(z, execIDs)
		return muts, nil, g, err
	}
	muts, starts, err := rmatGraph(z, seed)
	return muts, starts, nil, err
}

// setUp opens a cluster under dir, loads the workload's graph through
// Client.BulkLoad, flushes every store and runs the warm-up operations.
func setUp(spec workloadSpec, z sizes, seed int64, dir string, tr *tracer) (*instance, error) {
	var index []string
	if spec.meta {
		index = []string{"name"}
	}
	c, err := openCluster(dir, spec.cache(z), index, tr)
	if err != nil {
		return nil, err
	}
	in := &instance{spec: spec, z: z, seed: seed, c: c, tr: tr}
	var execIDs []model.VertexID
	if spec.meta {
		names := make([]string, z.Meta.Executions)
		for i := range names {
			names[i] = execName(i)
		}
		if execIDs, err = resolveAll(names, c.client.Intern); err == nil {
			// Flushing the dictionary apart from the graph leaves each store
			// with three tables, and churn-mixed reaches kv's six-table
			// compaction three quarters of the way through its interval.
			// With two it came in the last second of some runs and after the
			// end of others, and allocs_per_op had two modes a fifth apart.
			err = c.flush()
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("intern executions: %w", err)
		}
	}
	muts, starts, meta, err := baseMutations(spec, z, seed, execIDs)
	if err == nil {
		err = c.client.BulkLoad(muts, core.BulkOptions{Write: core.WriteOptions{Timeout: opTimeout}})
	}
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	in.starts, in.meta = starts, meta

	// Warm-up: the first fanout traversals, which between them reach most of
	// the graph, or one read of every hot key of the metadata graph.
	warm, ops := in.sources(seed, false), z.FanoutWarm
	if spec.meta {
		ops = 2 * z.HotKeys / spec.clients
		for c := range warm {
			warm[c] = &sweepSource{g: meta, client: c, clients: spec.clients}
		}
	}
	logs := in.runClosed(warm, func(i int) bool { return i < ops })
	for _, l := range logs {
		if l.err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up: %w", l.err)
		}
	}
	return in, nil
}

// resolveAll maps names to ids with fn (Client.Intern or
// Client.ResolveNames), a few thousand names per request.
func resolveAll(names []string, fn func([]string, core.WriteOptions) ([]model.VertexID, error)) ([]model.VertexID, error) {
	const chunk = 4096
	ids := make([]model.VertexID, 0, len(names))
	for lo := 0; lo < len(names); lo += chunk {
		hi := min(lo+chunk, len(names))
		got, err := fn(names[lo:hi], core.WriteOptions{Timeout: opTimeout})
		if err != nil {
			return nil, err
		}
		ids = append(ids, got...)
	}
	return ids, nil
}

// sources builds one operation source per client. Equal arguments give
// equal operation sequences.
func (in *instance) sources(seed int64, churn bool) []source {
	srcs := make([]source, in.spec.clients)
	for c := range srcs {
		if in.spec.meta {
			srcs[c] = &metaSource{
				r: rand.New(rand.NewSource(seed*1000 + int64(c))), seed: seed, client: c, churn: churn, g: in.meta,
			}
		} else {
			srcs[c] = &fanoutSource{starts: in.starts}
		}
	}
	return srcs
}

// --- closed-loop driver ------------------------------------------------

// sample is one completed operation: when it ended, counted from the start
// of the loop, and how long it took.
type sample struct {
	end  time.Duration
	lat  time.Duration
	kind opKind
}

type clientLog struct {
	samples []sample
	ops     int // operations drawn from the source, failed ones included
	failed  int
	err     error // first failure
}

// do runs one operation against the cluster.
func (in *instance) do(o op) error {
	if o.kind == opWrite {
		_, err := in.c.client.Mutate(o.muts, core.WriteOptions{Timeout: opTimeout})
		return err
	}
	traced := in.tr != nil && in.tr.on.Load()
	var start time.Time
	if traced {
		start = time.Now()
	}
	plan, err := o.travel.Compile()
	if err != nil {
		return err
	}
	if traced {
		// SubmitPlan encodes the plan itself; encode once more here so the
		// client's share of the fixed cost has a number.
		_ = plan.Encode()
		in.tr.done(cClientCompile, numServers, 0, start)
	}
	_, err = in.c.client.SubmitPlan(plan, core.SubmitOptions{
		Mode: core.ModeGraphTrek, Coordinator: -1, Timeout: opTimeout,
	})
	return err
}

// runClosed runs every source in its own goroutine, each sending its next
// operation when the previous one has completed, while more(i) holds for
// the client's i-th operation. It returns when all clients have stopped.
func (in *instance) runClosed(srcs []source, more func(i int) bool) []clientLog {
	logs := make([]clientLog, len(srcs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range srcs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.samples = make([]sample, 0, 1<<16)
			for i := 0; more(i); i++ {
				o := srcs[c].next()
				l.ops++
				capture := in.tr != nil && in.tr.on.Load() && !in.spec.meta && i%in.z.FanoutWarm == 0
				if capture {
					in.tr.op.Store(int64(i))
					in.tr.capturing.Store(true)
				}
				t0 := time.Now()
				err := in.do(o)
				lat := time.Since(t0)
				if capture {
					in.tr.capturing.Store(false)
				}
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = err
					}
					continue
				}
				l.samples = append(l.samples, sample{end: time.Since(start), lat: lat, kind: o.kind})
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// --- one measured phase ------------------------------------------------

// counters are the process- and cluster-wide totals read before and after a
// phase.
type counters struct {
	at      time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	servers metrics.Snapshot // summed over servers
	hists   []metrics.HistSnapshot
	cache   gstore.CacheStats
	gets    int64
	puts    int64
	flushes int64
	compact int64
	tables  int
	tableB  int64
	sendErr int64
	trace   *traceSnap
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (in *instance) read() *counters {
	k := &counters{}
	for i, s := range in.c.servers {
		k.servers = k.servers.Add(s.Metrics())
		for j, h := range s.Histograms() {
			if j == len(k.hists) {
				k.hists = append(k.hists, metrics.HistSnapshot{})
			}
			k.hists[j] = k.hists[j].Merge(h.Hist)
		}
		cs := in.c.caches[i].CacheStats()
		k.cache.VtxHits += cs.VtxHits
		k.cache.VtxMisses += cs.VtxMisses
		k.cache.AdjHits += cs.AdjHits
		k.cache.AdjMisses += cs.AdjMisses
		ds := in.c.stores[i].DB().Stats()
		k.gets += ds.Gets
		k.puts += ds.Puts + ds.Deletes
		k.flushes += ds.Flushes
		k.compact += ds.Compacts
		k.tables += ds.NumTables
		k.tableB += ds.TableBytes
	}
	for _, t := range in.c.transports {
		k.sendErr += t.Stats().SendFailures
	}
	if in.tr != nil {
		k.trace = in.tr.snapshot()
	}
	runtime.ReadMemStats(&k.mem)
	k.cpu = processCPU()
	k.at = time.Now()
	return k
}

// phase is one closed-loop interval with the counters around it.
type phase struct {
	dur    time.Duration
	logs   []clientLog
	before *counters
	after  *counters
}

func (in *instance) measure(srcs []source, d time.Duration) *phase {
	p := &phase{before: in.read()}
	deadline := p.before.at.Add(d)
	p.logs = in.runClosed(srcs, func(int) bool { return time.Now().Before(deadline) })
	p.after = in.read()
	p.dur = p.after.at.Sub(p.before.at)
	return p
}

func (p *phase) ops() (done, failed int) {
	for _, l := range p.logs {
		done += len(l.samples)
		failed += l.failed
	}
	return done, failed
}

func (p *phase) firstErr() error {
	for _, l := range p.logs {
		if l.err != nil {
			return l.err
		}
	}
	return nil
}

// --- correctness -------------------------------------------------------

// check rebuilds the graph in a MemStore from the seed and from a replay of
// every client's operations, then compares sampled traversals against
// query.Reference and reads back every vertex the run wrote from its
// partition's primary. drawn[c] is how many operations client c drew.
// It returns the problems found and the EncodeBatch size of everything the
// cluster was asked to store.
func (in *instance) check(drawn []int) (problems []string, userBytes int64, err error) {
	var execIDs []model.VertexID
	if in.meta != nil {
		execIDs = in.meta.execIDs
	}
	muts, _, _, err := baseMutations(in.spec, in.z, in.seed, execIDs)
	if err != nil {
		return nil, 0, err
	}
	oracle := gstore.NewMemStore()
	apply := func(ms []gstore.Mutation) error {
		userBytes += int64(len(gstore.EncodeBatch(ms)))
		for _, m := range ms {
			if err := m.Apply(oracle); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(muts); err != nil {
		return nil, 0, err
	}

	if in.spec.churn {
		// Replay the write batches. Names resolve over the wire, as a client
		// reading its own writes would resolve them.
		var batches [][]core.NamedMutation
		var names []string
		for c, src := range in.sources(in.seed, true) {
			for i := 0; i < drawn[c]; i++ {
				if o := src.next(); o.kind == opWrite {
					batches = append(batches, o.muts)
					for _, m := range o.muts {
						if m.Op == core.NamedAddVertex {
							names = append(names, m.Name)
						}
					}
				}
			}
		}
		ids, err := resolveAll(names, in.c.client.ResolveNames)
		if err != nil {
			return nil, 0, fmt.Errorf("resolve written names: %w", err)
		}
		idOf := make(map[string]model.VertexID, len(names)+len(execIDs))
		for i, n := range names {
			idOf[n] = ids[i]
		}
		for i, id := range execIDs {
			idOf[execName(i)] = id
		}
		lost := 0
		for _, b := range batches {
			var lowered []gstore.Mutation
			for _, m := range b {
				switch m.Op {
				case core.NamedAddVertex:
					id := idOf[m.Name]
					lowered = append(lowered, gstore.Mutation{Op: gstore.OpPutVertex,
						Vertex: model.Vertex{ID: id, Label: m.Label, Props: m.Props}})
					if id == 0 || !in.onPrimary(id) {
						lost++
					}
				case core.NamedAddEdge:
					lowered = append(lowered, gstore.Mutation{Op: gstore.OpPutEdge,
						Edge: model.Edge{Src: idOf[m.Src], Dst: idOf[m.Dst], Label: m.Label, Props: m.Props}})
				case core.NamedDelEdge:
					lowered = append(lowered, gstore.Mutation{Op: gstore.OpDelEdge,
						Src: idOf[m.Src], Label: m.Label, Dst: idOf[m.Dst]})
				}
			}
			if err := apply(lowered); err != nil {
				return nil, 0, err
			}
		}
		if lost > 0 {
			problems = append(problems, fmt.Sprintf("%d acknowledged vertex writes are missing on their primary", lost))
		}
	}

	n := in.z.VerifyOps
	if !in.spec.meta {
		n = min(n, in.z.FanoutWarm) // these take a thousand times longer
	}
	for i, src := 0, in.sources(in.seed+2, false)[0]; i < n; i++ {
		o := src.next()
		plan, err := o.travel.Compile()
		if err != nil {
			return nil, 0, err
		}
		want, err := query.Reference(oracle, plan)
		if err != nil {
			return nil, 0, err
		}
		got, err := in.c.client.SubmitPlan(plan, core.SubmitOptions{Mode: core.ModeGraphTrek, Coordinator: -1, Timeout: opTimeout})
		if err != nil {
			problems = append(problems, fmt.Sprintf("check traversal %s: %v", plan, err))
			continue
		}
		if !slices.Equal(got, want.Results) {
			problems = append(problems, fmt.Sprintf("traversal %s returned %d vertices, reference %d", plan, len(got), len(want.Results)))
		}
	}
	return problems, userBytes, nil
}

// onPrimary reports whether the primary of id's partition holds the vertex.
func (in *instance) onPrimary(id model.VertexID) bool {
	view := in.c.view
	primary := view.Assignment(view.Partition(id)).Primary
	_, ok, err := in.c.caches[primary].GetVertex(id)
	return ok && err == nil
}

// workDir makes a fresh directory for one cluster under base.
func workDir(base string, n int) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("cluster-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
