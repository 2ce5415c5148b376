// Command graphtrek-bench regenerates the paper's evaluation tables and
// figures on a simulated cluster.
//
// Usage:
//
//	graphtrek-bench [-exp all|list|table1|fig7|fig8|fig9|fig10|fig11|table2|table3|ablation|concurrent|partition]
//
// The concurrent experiment sweeps K=1/4/16/64 simultaneous traversals over
// the shared per-server executor and reports per-traversal latency
// percentiles plus queue-depth and queue-wait executor metrics. A runner
// exits nonzero when a property its figure rests on breaks (the §VII-A
// accounting identity, engine equivalence); behaviour beyond the figures is
// checked by the go tests (DESIGN.md §3).
//
// The experiment scale is selected with GRAPHTREK_SCALE
// (tiny|small|medium|paper; default small); any other value exits 2. See
// EXPERIMENTS.md for recorded outputs and the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"graphtrek/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all', or 'list')")
	flag.Parse()

	scale, err := bench.GetScale()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphtrek-bench:", err)
		os.Exit(2)
	}
	fmt.Printf("graphtrek-bench: scale=%s (set GRAPHTREK_SCALE=tiny|small|medium|paper)\n\n", scale.Name)

	switch *exp {
	case "list":
		names := make([]string, 0, len(bench.Experiments))
		for n := range bench.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	case "all":
		err = bench.RunAll(scale, os.Stdout)
	default:
		run, ok := bench.Experiments[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "graphtrek-bench: unknown experiment %q (try -exp list)\n", *exp)
			os.Exit(2)
		}
		err = run(scale, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphtrek-bench:", err)
		os.Exit(1)
	}
}
