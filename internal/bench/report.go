package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// ReportSchema versions the -json document so CI consumers can reject an
// incompatible layout instead of silently misreading it. Bump it whenever a
// field changes meaning or moves.
const ReportSchema = 1

// Report is the machine-readable benchmark document graphtrek-bench -json
// writes (BENCH_<exp>.json): one section per experiment, each holding the
// measured rows and the pass/fail checks (metrics invariant, engine
// equivalence) that gate CI.
type Report struct {
	Schema      int                 `json:"schema"`
	Scale       string              `json:"scale"`
	GoVersion   string              `json:"go_version"`
	StartedAt   string              `json:"started_at"`
	Experiments []*ExperimentResult `json:"experiments"`
}

// ExperimentResult is one experiment's section of the report.
type ExperimentResult struct {
	Name string `json:"name"`
	// Rows holds the measured series; which fields are set depends on the
	// experiment (a sweep sets Servers, the concurrent experiment sets K and
	// percentiles, metric-oriented experiments set the §VII-A counters).
	Rows []Row `json:"rows,omitempty"`
	// Checks are the report's machine-checkable assertions; any failed
	// check fails the whole report.
	Checks []Check `json:"checks,omitempty"`
	// Err records a runner error; like a failed check it fails the report.
	Err string `json:"err,omitempty"`
}

// Row is one measured series point. Zero-valued fields are omitted, so a
// row only carries the dimensions its experiment measures.
type Row struct {
	// Series names the measured configuration: an engine mode, or a
	// compound like "balanced/Sync-GT" for the partition experiment.
	Series    string `json:"series"`
	Servers   int    `json:"servers,omitempty"`
	K         int    `json:"k,omitempty"`
	Runs      int    `json:"runs,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns,omitempty"`
	P50Ns     int64  `json:"p50_ns,omitempty"`
	P95Ns     int64  `json:"p95_ns,omitempty"`
	Results   int    `json:"results,omitempty"`
	// §VII-A counters for the run (summed over servers unless the row is
	// per-server, in which case Servers is the server id and Series says so).
	Received  int64 `json:"received,omitempty"`
	Redundant int64 `json:"redundant,omitempty"`
	Combined  int64 `json:"combined,omitempty"`
	RealIO    int64 `json:"real_io,omitempty"`
	// Read-path counters (the readpath experiment): seed-selection
	// candidates and storage read-cache outcomes for the run.
	SeedScanned    int64 `json:"seed_scanned,omitempty"`
	SeedIndexHits  int64 `json:"seed_index_hits,omitempty"`
	VtxCacheHits   int64 `json:"vtx_cache_hits,omitempty"`
	VtxCacheMisses int64 `json:"vtx_cache_misses,omitempty"`
	AdjCacheHits   int64 `json:"adj_cache_hits,omitempty"`
	AdjCacheMisses int64 `json:"adj_cache_misses,omitempty"`
}

// Check is one pass/fail assertion recorded by an experiment.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// NewReport starts an empty report for one bench invocation.
func NewReport(s Scale) *Report {
	return &Report{
		Schema:    ReportSchema,
		Scale:     s.Name,
		GoVersion: runtime.Version(),
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// Experiment appends and returns a new named section. Nil-safe: a
// human-output-only run passes a nil report, gets a nil section back, and
// every recording method on a nil section is a no-op — runners never branch
// on whether JSON output was requested.
func (r *Report) Experiment(name string) *ExperimentResult {
	if r == nil {
		return nil
	}
	e := &ExperimentResult{Name: name}
	r.Experiments = append(r.Experiments, e)
	return e
}

// Failed reports whether any experiment errored or any check failed.
func (r *Report) Failed() bool {
	if r == nil {
		return false
	}
	for _, e := range r.Experiments {
		if e.Err != "" {
			return true
		}
		for _, c := range e.Checks {
			if !c.Pass {
				return true
			}
		}
	}
	return false
}

// WriteFile renders the report as indented JSON at path.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// AddRow records one measured series point.
func (e *ExperimentResult) AddRow(row Row) {
	if e == nil {
		return
	}
	e.Rows = append(e.Rows, row)
}

// AddCheck records one pass/fail assertion with a formatted detail line.
func (e *ExperimentResult) AddCheck(name string, pass bool, format string, args ...any) {
	if e == nil {
		return
	}
	e.Checks = append(e.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// SetErr records a runner error on the section.
func (e *ExperimentResult) SetErr(err error) {
	if e == nil || err == nil {
		return
	}
	e.Err = err.Error()
}
