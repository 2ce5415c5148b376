package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is what the harness reads of BENCHMARK.json, the contract
// the driver reads whole.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRuns groups the untraced runs of a -json file: workload → metric →
// one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// compareFiles prints one row per (workload, end-to-end metric): how set b's
// median stands against set a's under the metric's bound.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s %6.2f  missing\n", wl.Name, m.Name, "-", "-", "-", "-", m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // share by which b is worse than a
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "within bound"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %6.2f  %s\n",
				wl.Name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sp, m.Bound, verdict)
		}
	}
	return nil
}
