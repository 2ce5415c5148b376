// Command benchmark is the repository's one benchmark: three GraphTrek
// servers on persistent kv stores and one client, assembled in this process
// and joined by loopback TCP, driven by four named workloads. It prints
// end-to-end metrics from an untraced run, or a per-layer table from a
// traced run, and checks the cluster's answers against an in-memory oracle.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	seed := flag.Int64("seed", 1, "seed for the generated graph and the operations drawn against it")
	seconds := flag.Float64("seconds", 15, "length of the measured interval")
	trace := flag.Int("trace", 0, "1 puts decorators around the layers and prints the per-layer metrics instead of the end-to-end ones")
	jsonOut := flag.String("json", "", "append each run's full report to this file, one JSON object per line")
	dataDir := flag.String("data", ".bench_build/data", "directory for the clusters' stores; removed afterwards")
	outDir := flag.String("out", "benchmark/out", "directory for the span lists of traced fanout runs")
	commit := flag.String("commit", "unknown", "commit to record in the report")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments, using the bounds in ./BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	ok := true
	for _, spec := range specs {
		r, err := runWorkload(spec, fullSizes, *seed, *seconds, *trace != 0, *dataDir, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
			os.Exit(1)
		}
		r.Commit = *commit
		if *jsonOut != "" {
			if err := r.appendJSON(*jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		r.print(os.Stdout)
		ok = ok && r.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, measures it for the given time and
// checks the answers. An error means the run could not be made; a run that
// was made but gave wrong answers comes back with Correct unset.
func runWorkload(spec workloadSpec, z sizes, seed int64, seconds float64, traced bool, dataDir, outDir string) (*report, error) {
	r := newReport(spec.name, seed, traced, seconds)
	length := time.Duration(seconds * float64(time.Second))
	var tr *tracer
	setups := z.Setups
	if traced {
		tr = newTracer()
		setups = 1 // setup_s belongs to the untraced run
	}

	var in *instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			in.c.close()
		}
		dir, err := workDir(dataDir, i)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if in, err = setUp(spec, z, seed, dir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer in.c.close()

	srcs := in.sources(seed, spec.churn)
	var phases []*phase
	if traced {
		// A third of the interval runs with the decorators switched off, in
		// the same process, to price them: half before and half after the
		// traced part, so that a store that slows as it fills biases neither.
		before := in.measure(srcs, length/6)
		tr.on.Store(true)
		p := in.measure(srcs, length-2*(length/6))
		tr.on.Store(false)
		after := in.measure(srcs, length/6)
		phases = []*phase{before, p, after}
		r.perLayer(before, after, p, spec.churn)
		if spec.meta && !spec.churn {
			in.openLoop(r, seed)
		}
		r.probes()
		if !spec.meta {
			if err := writeSpans(filepath.Join(outDir, spec.name+".trace.json"), tr.spans); err != nil {
				return nil, err
			}
		}
	} else {
		phases = []*phase{in.measure(srcs, length)}
	}

	// Settle what the run wrote, then read memory and disk before the oracle
	// is built in this same heap.
	if err := in.c.flush(); err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	disk, err := in.c.diskBytes()
	if err != nil {
		return nil, err
	}

	drawn := make([]int, spec.clients)
	for _, p := range phases {
		done, failed := p.ops()
		r.Attempted += done + failed
		r.Failed += failed
		if err := p.firstErr(); err != nil {
			r.Problems = append(r.Problems, "operation failed: "+err.Error())
		}
		for c, l := range p.logs {
			drawn[c] += l.ops
		}
	}
	problems, userBytes, err := in.check(drawn)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	r.Problems = append(r.Problems, problems...)
	end := in.read().servers
	if end.Rejected > 0 || end.MsgsFailed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("servers rejected %d batches and failed %d sends", end.Rejected, end.MsgsFailed))
	}
	r.Correct = len(r.Problems) == 0 && r.Attempted > 0

	if !traced {
		r.endToEnd(phases[0], setupTimes, mem.HeapAlloc, ratio(float64(disk), float64(userBytes)))
	}
	return r, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
