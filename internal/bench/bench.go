// Package bench reproduces the paper's evaluation (§VII): every table and
// figure has a runner that builds a simulated cluster, loads the right
// workload, executes the traversals and prints the same rows/series the
// paper reports. Absolute times differ — the substrate is a one-process
// simulation with a virtual disk, not a 32-node InfiniBand cluster — but
// the comparisons (who wins, by what factor, where the crossover falls)
// are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"graphtrek"
	"graphtrek/internal/core"
	"graphtrek/internal/gen"
	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/simio"
)

// Scale sizes the experiments. The default fits a laptop run of the whole
// suite in minutes; GRAPHTREK_SCALE=medium and =paper select progressively
// larger configurations (paper = the publication's 2^20 / degree-16 graphs,
// which takes hours in simulation).
type Scale struct {
	Name string
	// RMAT workload (Table I, Figs 7-11).
	RMATScale int
	RMATDeg   int
	// Virtual disk: one cold spindle's per-access service time.
	DiskService time.Duration
	// Straggler emulation (Fig 11): per-access delay and access count,
	// scaled from the paper's 50 ms x 500.
	StragglerDelay time.Duration
	StragglerCount int
	// Metadata graph size (Tables II, III).
	MetaVertices int
	// Server counts on the x axis.
	ServerCounts []int
	// Runs to average for the straggler experiment.
	Fig11Runs int
}

// GetScale resolves the scale from the GRAPHTREK_SCALE environment
// variable: "tiny", "small" (also when unset), "medium" or "paper". Any
// other value is an error rather than a silent fall back to small, whose
// run takes minutes where tiny takes seconds.
func GetScale() (Scale, error) {
	switch name := os.Getenv("GRAPHTREK_SCALE"); name {
	case "medium":
		return Scale{
			Name: "medium", RMATScale: 14, RMATDeg: 12,
			DiskService:    100 * time.Microsecond,
			StragglerDelay: 10 * time.Millisecond, StragglerCount: 200,
			MetaVertices: 60000,
			ServerCounts: []int{2, 4, 8, 16, 32}, Fig11Runs: 3,
		}, nil
	case "paper":
		return Scale{
			Name: "paper", RMATScale: 20, RMATDeg: 16,
			DiskService:    100 * time.Microsecond,
			StragglerDelay: 50 * time.Millisecond, StragglerCount: 500,
			MetaVertices: 2_000_000,
			ServerCounts: []int{2, 4, 8, 16, 32}, Fig11Runs: 3,
		}, nil
	case "tiny":
		return Scale{
			Name: "tiny", RMATScale: 9, RMATDeg: 6,
			DiskService:    20 * time.Microsecond,
			StragglerDelay: 1 * time.Millisecond, StragglerCount: 30,
			MetaVertices: 3000,
			ServerCounts: []int{2, 8, 32}, Fig11Runs: 2,
		}, nil
	case "", "small":
		return Scale{
			Name: "small", RMATScale: 12, RMATDeg: 8,
			DiskService:    100 * time.Microsecond,
			StragglerDelay: 5 * time.Millisecond, StragglerCount: 100,
			MetaVertices: 20000,
			ServerCounts: []int{2, 4, 8, 16, 32}, Fig11Runs: 3,
		}, nil
	default:
		return Scale{}, fmt.Errorf("bench: unknown GRAPHTREK_SCALE %q (want tiny, small, medium or paper)", name)
	}
}

// rmatCluster builds a cluster with the RMAT-1 graph loaded, returning the
// traversal seed vertex (a well-connected one, so deep traversals reach a
// large fraction of the graph, as in the paper's runs).
func rmatCluster(s Scale, servers int, stragglers *simio.StragglerPlan) (*graphtrek.Cluster, model.VertexID, error) {
	c, err := graphtrek.NewCluster(graphtrek.Options{
		Servers:       servers,
		DiskService:   s.DiskService,
		Stragglers:    stragglers,
		TravelTimeout: 10 * time.Minute,
	})
	if err != nil {
		return nil, 0, err
	}
	deg := make([]int, 1<<s.RMATScale)
	sink := gen.Funcs{
		Vertex: c.AddVertex,
		Edge: func(e model.Edge) error {
			deg[e.Src]++
			return c.AddEdge(e)
		},
	}
	if _, err := gen.RMAT(gen.RMAT1(s.RMATScale, s.RMATDeg, 1), sink); err != nil {
		c.Close()
		return nil, 0, err
	}
	// The paper starts from a randomly selected vertex; we pick the first
	// vertex with at least average degree to make runs deterministic and
	// non-degenerate.
	seed := model.VertexID(0)
	for i, d := range deg {
		if d >= s.RMATDeg {
			seed = model.VertexID(i)
			break
		}
	}
	return c, seed, nil
}

// hopPlan builds the k-step RMAT traversal: v(seed).e(link)^k.
func hopPlan(seed model.VertexID, steps int) (*query.Plan, error) {
	t := query.V(seed)
	for i := 0; i < steps; i++ {
		t = t.E("link")
	}
	return t.Compile()
}

// timeTraversal runs one traversal and returns the elapsed wall time.
func timeTraversal(c *graphtrek.Cluster, plan *query.Plan, mode core.Mode) (time.Duration, int, error) {
	start := time.Now()
	res, err := c.RunPlan(plan, core.SubmitOptions{Mode: mode, Coordinator: 0, Timeout: 30 * time.Minute})
	return time.Since(start), len(res), err
}

// Result rows shared by the runners.
type seriesRow struct {
	Servers int
	Times   map[core.Mode]time.Duration
}

// runSweep measures the given modes across the scale's server counts,
// printing each row as it lands.
func runSweep(s Scale, steps int, modes []core.Mode, stragglers func(servers int) *simio.StragglerPlan, runs int, w io.Writer) ([]seriesRow, error) {
	var rows []seriesRow
	for _, n := range s.ServerCounts {
		row := seriesRow{Servers: n, Times: make(map[core.Mode]time.Duration)}
		for _, mode := range modes {
			var total time.Duration
			for r := 0; r < runs; r++ {
				var plan *simio.StragglerPlan
				if stragglers != nil {
					plan = stragglers(n)
				}
				c, seed, err := rmatCluster(s, n, plan)
				if err != nil {
					return nil, err
				}
				p, err := hopPlan(seed, steps)
				if err != nil {
					c.Close()
					return nil, err
				}
				d, _, err := timeTraversal(c, p, mode)
				c.Close()
				if err != nil {
					return nil, fmt.Errorf("bench: %v on %d servers: %w", mode, n, err)
				}
				total += d
			}
			row.Times[mode] = total / time.Duration(runs)
		}
		rows = append(rows, row)
		printSweepRow(w, row, modes)
	}
	return rows, nil
}

func printSweepHeader(w io.Writer, modes []core.Mode) {
	fmt.Fprintf(w, "%-10s", "Servers")
	for _, m := range modes {
		fmt.Fprintf(w, "%14s", m.String())
	}
	fmt.Fprintln(w)
}

func printSweepRow(w io.Writer, row seriesRow, modes []core.Mode) {
	fmt.Fprintf(w, "%-10d", row.Servers)
	for _, m := range modes {
		fmt.Fprintf(w, "%14s", fmtDur(row.Times[m]))
	}
	fmt.Fprintln(w)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}
