package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphtrek/internal/gen"
)

// tinySizes runs every workload in a fraction of a second: RMAT scale 9 and
// a metadata graph of about three thousand vertices.
var tinySizes = sizes{
	RMATScale: 9, RMATDegree: 8, MinDegree: 8, FanoutWarm: 4,
	ColdCache: 16 << 10, WarmCache: 64 << 20,
	Meta: gen.MetaConfig{
		Users: 20, Jobs: 200, Executions: 2000, Files: 800,
		ReadFrac: 0.6, WriteFrac: 0.5, AttrBytes: 64,
	},
	MetaCache: 64 << 20, HotKeys: 20,
	Setups: 1, VerifyOps: 8,
	OpenRate: 200, OpenLength: 300 * time.Millisecond, OpenInFlight: 64,
}

// TestSmoke runs each workload untraced and traced at the tiny size and
// holds the reports against the name lists in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	data := t.TempDir()
	for i, w := range bf.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok || workloads[i].name != w.Name {
			t.Fatalf("workload %q is not the harness's workload %d", w.Name, i)
		}
		if w.Why != spec.why {
			t.Errorf("%s: BENCHMARK.json and the harness give different reasons", w.Name)
		}
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(spec, tinySizes, 1, 0.3, traced, data, filepath.Join(data, "out"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d problems=%v", w.Name, traced, r.Correct, r.Failed, r.Problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing from the report", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range r.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			var out bytes.Buffer
			r.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s: last line of the report is %.60q", w.Name, last)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
