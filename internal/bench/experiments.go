package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"graphtrek"
	"graphtrek/internal/core"
	"graphtrek/internal/gen"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/simio"
)

// Table1 reproduces Table I: Sync-GT vs Async-GT vs GraphTrek on an 8-step
// RMAT-1 traversal across the server-count sweep. Paper reference (seconds,
// 2→32 servers): Sync 47.8/28.5/17.1/10.3/7.2; Async 63.7/33.1/20.6/12.1/
// 7.4; GraphTrek 45.2/22.5/13.4/8.3/5.6.
func Table1(s Scale, w io.Writer) error {
	fmt.Fprintf(w, "TABLE I — 8-step traversal on RMAT-1 (scale=%s), elapsed per engine\n", s.Name)
	fmt.Fprintln(w, "paper shape: Async-GT slowest everywhere; GraphTrek < Sync-GT at every width")
	modes := []core.Mode{core.ModeSync, core.ModeAsyncPlain, core.ModeGraphTrek}
	printSweepHeader(w, modes)
	_, err := runSweep(s, 8, modes, nil, 1, w)
	return err
}

// Fig7 reproduces Figure 7: the per-server breakdown of received vertex
// requests into real I/O, merge-combined and cache-redundant visits for an
// 8-step GraphTrek traversal on the widest server count.
func Fig7(s Scale, w io.Writer) error {
	servers := s.ServerCounts[len(s.ServerCounts)-1]
	fmt.Fprintf(w, "FIGURE 7 — per-server visit breakdown, 8-step GraphTrek on %d servers (scale=%s)\n", servers, s.Name)
	c, seed, err := rmatCluster(s, servers, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	plan, err := hopPlan(seed, 8)
	if err != nil {
		return err
	}
	before := c.ServerMetrics()
	if _, _, err := timeTraversal(c, plan, core.ModeGraphTrek); err != nil {
		return err
	}
	after := c.ServerMetrics()
	fmt.Fprintf(w, "%-8s%12s%12s%12s%12s\n", "Server", "RealIO", "Combined", "Redundant", "Received")
	var totals graphtrek.Metrics
	for i := range after {
		d := after[i].Sub(before[i])
		totals = totals.Add(d)
		fmt.Fprintf(w, "%-8d%12d%12d%12d%12d\n", i, d.RealIO, d.Combined, d.Redundant, d.Received)
		if !d.Consistent() {
			return fmt.Errorf("bench: server %d accounting identity violated: %+v", i, d)
		}
	}
	fmt.Fprintf(w, "%-8s%12d%12d%12d%12d\n", "total", totals.RealIO, totals.Combined, totals.Redundant, totals.Received)
	fmt.Fprintf(w, "paper shape: redundant visits dominate received requests; combining is concentrated on the loaded servers\n")
	return nil
}

// FigSteps reproduces Figures 8, 9 and 10: Sync-GT vs GraphTrek elapsed
// time for 2-, 4- and 8-step traversals across server counts. Paper shape:
// Sync wins short traversals on few servers (Fig 8); GraphTrek's advantage
// grows with steps and servers, reaching ≈24% at 8 steps / 32 servers
// versus ≈5% at 2 servers (Fig 10).
func FigSteps(s Scale, steps int, w io.Writer) error {
	fig := map[int]string{2: "FIGURE 8", 4: "FIGURE 9", 8: "FIGURE 10"}[steps]
	if fig == "" {
		fig = "FIGURE"
	}
	fmt.Fprintf(w, "%s — %d-step traversal on RMAT-1 (scale=%s)\n", fig, steps, s.Name)
	modes := []core.Mode{core.ModeSync, core.ModeGraphTrek}
	printSweepHeader(w, modes)
	rows, err := runSweep(s, steps, modes, nil, 1, w)
	if err != nil {
		return err
	}
	last := rows[len(rows)-1]
	gain := 1 - float64(last.Times[core.ModeGraphTrek])/float64(last.Times[core.ModeSync])
	fmt.Fprintf(w, "GraphTrek improvement at %d servers: %.0f%%\n", last.Servers, gain*100)
	return nil
}

// Fig11 reproduces Figure 11: the same 8-step sweep with emulated external
// interference — one straggler per step at steps 1, 3 and 7, placed
// round-robin on three chosen servers, each delaying StragglerCount vertex
// accesses by StragglerDelay (the paper used 50 ms × 500). Each bar is the
// average of Fig11Runs runs. Paper shape: GraphTrek ≈2× faster at 32
// servers.
func Fig11(s Scale, w io.Writer) error {
	fmt.Fprintf(w, "FIGURE 11 — 8-step traversal with external stragglers (delay=%v x %d accesses, scale=%s, avg of %d runs)\n",
		s.StragglerDelay, s.StragglerCount, s.Name, s.Fig11Runs)
	modes := []core.Mode{core.ModeSync, core.ModeGraphTrek}
	printSweepHeader(w, modes)
	mk := func(servers int) *simio.StragglerPlan {
		// Three selected servers, one straggler per step at steps 1, 3, 7.
		sel := []int{0, servers / 2, servers - 1}
		if servers < 3 {
			sel = []int{0, servers - 1, 0}
		}
		return simio.PaperPlan(sel, []int{1, 3, 7}, s.StragglerDelay, s.StragglerCount)
	}
	rows, err := runSweep(s, 8, modes, mk, s.Fig11Runs, w)
	if err != nil {
		return err
	}
	last := rows[len(rows)-1]
	ratio := float64(last.Times[core.ModeSync]) / float64(last.Times[core.ModeGraphTrek])
	fmt.Fprintf(w, "Sync/GraphTrek ratio at %d servers: %.2fx (paper: ≈2x)\n", last.Servers, ratio)
	return nil
}

// Table2 prints the synthetic rich-metadata graph statistics next to the
// paper's Table II, demonstrating that the generator preserves the entity
// ratios of the Darshan/Intrepid graph at the chosen scale.
func Table2(s Scale, w io.Writer) error {
	fmt.Fprintf(w, "TABLE II — rich metadata graph statistics (scale=%s)\n", s.Name)
	cfg := gen.ScaledMeta(s.MetaVertices, 1)
	g := newCountingSink()
	stats, err := gen.Metadata(cfg, g)
	if err != nil {
		return err
	}
	if stats.Edges == 0 || stats.Executions == 0 {
		return fmt.Errorf("bench: empty metadata graph: users=%d jobs=%d executions=%d files=%d edges=%d",
			stats.Users, stats.Jobs, stats.Executions, stats.Files, stats.Edges)
	}
	fmt.Fprintf(w, "%-12s%12s%12s%14s%12s%12s\n", "", "Users", "Jobs", "Executions", "Files", "Edges")
	fmt.Fprintf(w, "%-12s%12d%12d%14d%12d%12d\n", "generated", stats.Users, stats.Jobs, stats.Executions, stats.Files, stats.Edges)
	fmt.Fprintf(w, "%-12s%12d%12d%14d%12d%12d\n", "paper", 177, 47600, 123_400_000, 34_600_000, 239_800_000)
	fmt.Fprintf(w, "ratio check: executions/files generated %.2f vs paper %.2f; edges/vertices %.2f vs paper %.2f\n",
		float64(stats.Executions)/float64(stats.Files), 123.4/34.6,
		float64(stats.Edges)/float64(stats.Users+stats.Jobs+stats.Executions+stats.Files),
		239.8/158.0)
	return nil
}

type countingSink struct{ verts, edges int }

func newCountingSink() *countingSink { return &countingSink{} }

func (c *countingSink) AddVertex(gen2 graphtrek.Vertex) error { c.verts++; return nil }
func (c *countingSink) AddEdge(gen2 graphtrek.Edge) error     { c.edges++; return nil }

// Table3 reproduces Table III: the 6-step suspicious-user audit query on
// the rich-metadata graph at the widest server count, under the three
// engines. Paper (32 servers): Sync 3575 ms, Async 4159 ms, GraphTrek
// 2839 ms.
func Table3(s Scale, w io.Writer) error {
	servers := s.ServerCounts[len(s.ServerCounts)-1]
	fmt.Fprintf(w, "TABLE III — Darshan-style audit query on %d servers (scale=%s)\n", servers, s.Name)
	c, err := graphtrek.NewCluster(graphtrek.Options{
		Servers:       servers,
		DiskService:   s.DiskService,
		TravelTimeout: 10 * time.Minute,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	// Four times the Table II graph: the query follows six hops, so it
	// needs enough depth for the engines to differentiate above timer
	// noise.
	stats, err := gen.Metadata(gen.ScaledMeta(s.MetaVertices*4, 1), c.Sink())
	if err != nil {
		return err
	}
	// §VII-D: list all files written by executions whose input files are
	// suspicious (written by a suspect user's executions).
	suspect := stats.UserID(1)
	plan, err := query.V(suspect).
		E("run").Ea("ts", property.RANGE, 0, 1<<20).
		E("hasExecutions").
		E("write").
		E("readBy").
		E("write").Rtn().
		Compile()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query: %s\n", plan)
	fmt.Fprintf(w, "%-14s%12s%12s   (average of 3 cold runs)\n", "Engine", "Elapsed", "Results")
	counts := make(map[core.Mode]int)
	for _, mode := range []core.Mode{core.ModeSync, core.ModeAsyncPlain, core.ModeGraphTrek} {
		var total time.Duration
		var n int
		const runs = 3
		for r := 0; r < runs; r++ {
			c.ResetDisks() // each run starts cold, as in §VII
			d, nn, err := timeTraversal(c, plan, mode)
			if err != nil {
				return err
			}
			total += d
			n = nn
		}
		counts[mode] = n
		fmt.Fprintf(w, "%-14s%12s%12d\n", mode, fmtDur(total/runs), n)
	}
	fmt.Fprintln(w, "paper (32 servers): Sync-GT 3575ms, Async-GT 4159ms, GraphTrek 2839ms")
	if counts[core.ModeAsyncPlain] != counts[core.ModeSync] || counts[core.ModeGraphTrek] != counts[core.ModeSync] {
		return fmt.Errorf("bench: engines disagree on the audit query: sync=%d async=%d graphtrek=%d results",
			counts[core.ModeSync], counts[core.ModeAsyncPlain], counts[core.ModeGraphTrek])
	}
	return nil
}

// Ablation goes beyond the paper: it isolates each GraphTrek optimization
// (cache only, scheduling/merging only, both) on the 8-step RMAT workload
// at the widest server count, quantifying where the win comes from.
func Ablation(s Scale, w io.Writer) error {
	servers := s.ServerCounts[len(s.ServerCounts)-1]
	fmt.Fprintf(w, "ABLATION — 8-step RMAT-1 on %d servers (scale=%s)\n", servers, s.Name)
	fmt.Fprintf(w, "%-16s%12s%12s%12s%12s\n", "Engine", "Elapsed", "RealIO", "Combined", "Redundant")
	for _, mode := range []core.Mode{
		core.ModeAsyncPlain, core.ModeAsyncCacheOnly, core.ModeAsyncSchedOnly,
		core.ModeGraphTrek, core.ModeSync, core.ModeClientSide,
	} {
		c, seed, err := rmatCluster(s, servers, nil)
		if err != nil {
			return err
		}
		plan, err := hopPlan(seed, 8)
		if err != nil {
			c.Close()
			return err
		}
		d, _, err := timeTraversal(c, plan, mode)
		if err != nil {
			c.Close()
			return err
		}
		var total graphtrek.Metrics
		for _, m := range c.ServerMetrics() {
			total = total.Add(m)
		}
		c.Close()
		fmt.Fprintf(w, "%-16s%12s%12d%12d%12d\n", mode, fmtDur(d), total.RealIO, total.Combined, total.Redundant)
		if !total.Consistent() {
			return fmt.Errorf("bench: %v accounting identity violated: %+v", mode, total)
		}
	}
	return nil
}

// Concurrent goes beyond the paper's figures but tests its core motivation
// (§I): concurrent traversals interfere and create stragglers, and global
// synchronization amplifies the damage. It sweeps K simultaneous 8-step
// traversals from different seeds over each server's shared executor and
// reports, per engine and K, the makespan, the per-traversal latency
// distribution (p50/p95) and the executor's own view of the contention —
// queue depth high-water mark and mean enqueue→pop wait.
func Concurrent(s Scale, w io.Writer) error {
	servers := s.ServerCounts[len(s.ServerCounts)-1] / 2
	if servers < 2 {
		servers = 2
	}
	ks := []int{1, 4, 16, 64}
	fmt.Fprintf(w, "CONCURRENT — K simultaneous 8-step traversals on %d servers, shared executor (scale=%s)\n", servers, s.Name)
	fmt.Fprintf(w, "%-14s%6s%12s%12s%12s%12s%12s\n",
		"Engine", "K", "Makespan", "p50", "p95", "QDepthPeak", "AvgWait")
	for _, mode := range []core.Mode{core.ModeSync, core.ModeGraphTrek} {
		for _, k := range ks {
			c, seed, err := rmatCluster(s, servers, nil)
			if err != nil {
				return err
			}
			durs := make([]time.Duration, k)
			errs := make([]error, k)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p, err := hopPlan(seed+graphtrek.VertexID(i), 8)
					if err == nil {
						durs[i], _, err = timeTraversal(c, p, mode)
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			makespan := time.Since(start)
			var peak, waitNs, groups int64
			for _, m := range c.ServerMetrics() {
				if m.QueueDepthPeak > peak {
					peak = m.QueueDepthPeak
				}
				waitNs += m.QueueWaitNs
				groups += m.QueueGroups
			}
			c.Close()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			avgWait := time.Duration(0)
			if groups > 0 {
				avgWait = time.Duration(waitNs / groups)
			}
			fmt.Fprintf(w, "%-14s%6d%12s%12s%12s%12d%12s\n",
				mode, k, fmtDur(makespan),
				fmtDur(durs[k/2]), fmtDur(durs[(95*(k-1))/100]),
				peak, fmtDur(avgWait))
		}
	}
	fmt.Fprintln(w, "paper motivation: interference among concurrent traversals penalizes the synchronous engine's barriers;")
	fmt.Fprintln(w, "the shared executor keeps per-server goroutines fixed while K grows, trading latency visible in the queue wait")
	return nil
}

// Partition goes beyond the paper: it contrasts the default hash edge-cut
// with the degree-aware Balanced placement (the paper's "automatic load
// balancing" future work, §VIII) on the 8-step workload. Even perfectly
// balanced placement leaves stragglers — the paper's argument for
// asynchrony — but it narrows Sync-GT's per-step barrier wait.
func Partition(s Scale, w io.Writer) error {
	servers := s.ServerCounts[len(s.ServerCounts)-1]
	fmt.Fprintf(w, "PARTITION — 8-step RMAT-1 on %d servers, hash vs degree-balanced placement (scale=%s)\n", servers, s.Name)
	fmt.Fprintf(w, "%-12s%-14s%12s%16s\n", "Placement", "Engine", "Elapsed", "MaxIO/MeanIO")

	// Pass 1: degree census of the workload.
	degrees := make(map[model.VertexID]int)
	census := gen.Funcs{
		Vertex: func(model.Vertex) error { return nil },
		Edge:   func(e model.Edge) error { degrees[e.Src]++; return nil },
	}
	if _, err := gen.RMAT(gen.RMAT1(s.RMATScale, s.RMATDeg, 1), census); err != nil {
		return err
	}

	for _, placement := range []string{"hash", "balanced"} {
		var part partition.Partitioner
		if placement == "balanced" {
			part = partition.NewBalanced(servers, degrees)
		}
		for _, mode := range []core.Mode{core.ModeSync, core.ModeGraphTrek} {
			c, err := graphtrek.NewCluster(graphtrek.Options{
				Servers:       servers,
				DiskService:   s.DiskService,
				TravelTimeout: 10 * time.Minute,
				Partitioner:   part,
			})
			if err != nil {
				return err
			}
			if _, err := gen.RMAT(gen.RMAT1(s.RMATScale, s.RMATDeg, 1), c.Sink()); err != nil {
				c.Close()
				return err
			}
			seed := model.VertexID(0)
			for id, d := range degrees {
				if d >= s.RMATDeg && (seed == 0 || id < seed) {
					seed = id
				}
			}
			plan, err := hopPlan(seed, 8)
			if err != nil {
				c.Close()
				return err
			}
			before := c.ServerMetrics()
			d, _, err := timeTraversal(c, plan, mode)
			if err != nil {
				c.Close()
				return err
			}
			var maxIO, sumIO int64
			after := c.ServerMetrics()
			for i := range after {
				io := after[i].Sub(before[i]).RealIO
				sumIO += io
				if io > maxIO {
					maxIO = io
				}
			}
			c.Close()
			mean := float64(sumIO) / float64(servers)
			fmt.Fprintf(w, "%-12s%-14s%12s%16.2f\n", placement, mode, fmtDur(d), float64(maxIO)/mean)
		}
	}
	fmt.Fprintln(w, "MaxIO/MeanIO is the per-step straggler potential; balanced placement narrows it")
	return nil
}

// Experiments maps experiment ids to runners, for cmd/graphtrek-bench. A
// runner prints its paper-style table to w and returns an error when the
// run fails or breaks a property its figure rests on (the §VII-A
// accounting identity, engine equivalence, a non-empty graph).
var Experiments = map[string]func(Scale, io.Writer) error{
	"table1":     Table1,
	"fig7":       Fig7,
	"fig8":       func(s Scale, w io.Writer) error { return FigSteps(s, 2, w) },
	"fig9":       func(s Scale, w io.Writer) error { return FigSteps(s, 4, w) },
	"fig10":      func(s Scale, w io.Writer) error { return FigSteps(s, 8, w) },
	"fig11":      Fig11,
	"table2":     Table2,
	"table3":     Table3,
	"ablation":   Ablation,
	"concurrent": Concurrent,
	"partition":  Partition,
}

// Order is the canonical run order for "all".
var Order = []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "ablation", "concurrent", "partition"}

// RunAll executes every experiment in order and stops at the first error.
func RunAll(s Scale, w io.Writer) error {
	for _, name := range Order {
		fmt.Fprintln(w, strings.Repeat("=", 78))
		if err := Experiments[name](s, w); err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
