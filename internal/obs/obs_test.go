package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphtrek"
	"graphtrek/internal/metrics"
	"graphtrek/internal/obs"
)

// startCluster builds a small cluster, loads the Fig 1-style audit graph,
// runs one traversal per server-side engine, and serves its backends
// through an obs mux.
func startCluster(t *testing.T) (*graphtrek.Cluster, *httptest.Server) {
	t.Helper()
	c, err := graphtrek.NewCluster(graphtrek.Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	load := func(v graphtrek.Vertex) {
		if err := c.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	load(graphtrek.Vertex{ID: 1, Label: "User"})
	load(graphtrek.Vertex{ID: 10, Label: "Execution"})
	load(graphtrek.Vertex{ID: 11, Label: "Execution"})
	load(graphtrek.Vertex{ID: 20, Label: "File", Props: graphtrek.Props{"type": graphtrek.String("text")}})
	for _, e := range []graphtrek.Edge{
		{Src: 1, Dst: 10, Label: "run"},
		{Src: 1, Dst: 11, Label: "run"},
		{Src: 10, Dst: 20, Label: "read"},
		{Src: 11, Dst: 20, Label: "read"},
	} {
		if err := c.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []graphtrek.Mode{graphtrek.ModeGraphTrek, graphtrek.ModeSync, graphtrek.ModeAsyncPlain} {
		res, err := c.Run(graphtrek.V(1).E("run").E("read"), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res) != 1 || res[0] != 20 {
			t.Fatalf("%v: results = %v", mode, res)
		}
	}
	targets := make([]obs.Target, c.Servers())
	for i := range targets {
		targets[i] = c.Server(i)
	}
	ts := httptest.NewServer(obs.NewMux(targets...))
	t.Cleanup(ts.Close)
	return c, ts
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp
}

// parseExposition extracts metric values from the Prometheus text format,
// keyed by name, then series key: "" for an unlabeled (process-wide)
// series, the server id for a {server="N"} series, and "N|<le>" for a
// histogram bucket {server="N",le="<le>"}.
func parseExposition(t *testing.T, body string) map[string]map[string]float64 {
	t.Helper()
	out := make(map[string]map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, key, valStr string
		if labeled, rest, ok := strings.Cut(line, "} "); ok {
			valStr = rest
			var labels string
			name, labels, ok = strings.Cut(labeled, "{")
			if !ok {
				t.Fatalf("bad exposition line %q", line)
			}
			srv, le := "", ""
			for _, kv := range strings.Split(labels, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					t.Fatalf("bad label %q in %q", kv, line)
				}
				v = strings.Trim(v, `"`)
				switch k {
				case "server":
					srv = v
				case "le":
					le = v
				default:
					t.Fatalf("unexpected label %q in %q", k, line)
				}
			}
			key = srv
			if le != "" {
				key = srv + "|" + le
			}
		} else {
			var ok bool
			name, valStr, ok = strings.Cut(line, " ")
			if !ok {
				t.Fatalf("bad exposition line %q", line)
			}
			key = ""
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if out[name] == nil {
			out[name] = make(map[string]float64)
		}
		out[name][key] = val
	}
	return out
}

// wantFamilies is every metric family /metrics declares, with its type, in
// exposition order: each per-server number has one row, so a second series
// for a number that already has one fails here instead of slipping in.
var wantFamilies = []string{
	"received_total counter", "redundant_total counter", "combined_total counter", "real_io_total counter",
	"msgs_sent_total counter", "execs_total counter", "msgs_failed_total counter", "reconnects_total counter",
	"peer_down_events_total counter", "orphan_msgs_total counter", "cache_evictions_total counter",
	"rejected_total counter", "queue_depth_peak gauge", "queue_len gauge", "queue_wait_ns_total counter",
	"queue_groups_total counter", "seed_scanned_total counter", "seed_index_hits_total counter",
	"vtx_cache_hits_total counter", "vtx_cache_misses_total counter", "adj_cache_hits_total counter",
	"adj_cache_misses_total counter", "trace_spans_dropped_total counter", "trace_spans_recorded_total counter",
	"trace_spans_buffered gauge", "trace_summaries_buffered gauge", "events_dropped_total counter",
	"promotions_total counter", "epoch_rejects_total counter", "repl_lag_bytes gauge", "handoff_bytes_total counter",
	"rejoin_nudges_total counter", "heap_alloc_bytes gauge", "gc_cycles_total counter", "gc_pause_ns_total counter",
	"gc_pause_p95_ns gauge", "travel_latency_seconds histogram", "queue_wait_seconds histogram",
	"step_compute_seconds histogram", "quorum_write_seconds histogram",
}

// TestMetricsEndpointExposesEveryCounter is the e2e gate: after real
// traversals, /metrics must expose every metrics.Fields() counter for
// every server, the families it declares must be exactly wantFamilies, and
// the paper's §VII-A identity redundant + combined + real == received must
// hold from scraped values alone.
func TestMetricsEndpointExposesEveryCounter(t *testing.T) {
	c, ts := startCluster(t)
	body, resp := get(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	vals := parseExposition(t, body)
	for _, f := range metrics.Fields() {
		name := "graphtrek_" + f.Name
		series, ok := vals[name]
		if !ok {
			t.Errorf("counter %s missing from /metrics", name)
			continue
		}
		if f.Process {
			// Process-wide fields are emitted once, unlabeled: per-server
			// copies of one Go runtime would multiply under a PromQL sum().
			if _, ok := series[""]; !ok {
				t.Errorf("process field %s missing its unlabeled series", name)
			}
			if len(series) != 1 {
				t.Errorf("process field %s has %d series, want 1 unlabeled", name, len(series))
			}
		} else {
			for i := 0; i < c.Servers(); i++ {
				if _, ok := series[strconv.Itoa(i)]; !ok {
					t.Errorf("counter %s missing series for server %d", name, i)
				}
			}
		}
		if !strings.Contains(body, "# HELP "+name+" ") || !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("counter %s missing HELP/TYPE comments", name)
		}
	}
	var received float64
	for i := 0; i < c.Servers(); i++ {
		srv := strconv.Itoa(i)
		got := vals["graphtrek_redundant_total"][srv] +
			vals["graphtrek_combined_total"][srv] +
			vals["graphtrek_real_io_total"][srv]
		if got != vals["graphtrek_received_total"][srv] {
			t.Errorf("server %s: redundant+combined+real = %v, received = %v", srv, got, vals["graphtrek_received_total"][srv])
		}
		received += vals["graphtrek_received_total"][srv]
	}
	if received == 0 {
		t.Error("no requests recorded across the cluster")
	}
	for _, gauge := range []string{
		"graphtrek_queue_len",
		"graphtrek_trace_spans_recorded_total", "graphtrek_trace_spans_buffered",
		"graphtrek_trace_summaries_buffered", "graphtrek_events_dropped_total",
	} {
		if _, ok := vals[gauge]; !ok {
			t.Errorf("%s missing from /metrics", gauge)
		}
	}
	var families []string
	for _, line := range strings.Split(body, "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE graphtrek_"); ok {
			families = append(families, typ)
		}
	}
	if strings.Join(families, "\n") != strings.Join(wantFamilies, "\n") {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(families, "\n"), strings.Join(wantFamilies, "\n"))
	}
	if vals["graphtrek_trace_spans_recorded_total"]["0"]+
		vals["graphtrek_trace_spans_recorded_total"]["1"]+
		vals["graphtrek_trace_spans_recorded_total"]["2"] == 0 {
		t.Error("no spans recorded across the cluster")
	}
}

// TestMetricsHistogramExposition is the e2e gate for the native latency
// histograms: every histogram is exposed in real Prometheus histogram form
// (cumulative _bucket series over the shared le ladder, _sum, _count), the
// cumulative counts are monotone, the +Inf bucket equals _count, and the
// _count series cross-check against the plain counters that pin them —
// the §VII-A-style identity for the latency pipeline.
func TestMetricsHistogramExposition(t *testing.T) {
	c, ts := startCluster(t)
	body, _ := get(t, ts.URL+"/metrics")
	vals := parseExposition(t, body)
	hists := []string{
		"graphtrek_travel_latency_seconds",
		"graphtrek_queue_wait_seconds",
		"graphtrek_step_compute_seconds",
		"graphtrek_quorum_write_seconds",
	}
	les := make([]string, 0, len(metrics.DefaultLadderNs)+1)
	for _, ns := range metrics.DefaultLadderNs {
		les = append(les, strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64))
	}
	les = append(les, "+Inf")
	for _, name := range hists {
		if !strings.Contains(body, "# TYPE "+name+" histogram") {
			t.Errorf("%s not declared as TYPE histogram", name)
		}
		buckets, sums, counts := vals[name+"_bucket"], vals[name+"_sum"], vals[name+"_count"]
		for i := 0; i < c.Servers(); i++ {
			srv := strconv.Itoa(i)
			prev := -1.0
			for _, le := range les {
				v, ok := buckets[srv+"|"+le]
				if !ok {
					t.Fatalf("%s missing bucket le=%q for server %s", name, le, srv)
				}
				if v < prev {
					t.Errorf("%s server %s: bucket le=%q = %v < previous %v (non-monotone)", name, srv, le, v, prev)
				}
				prev = v
			}
			count, ok := counts[srv]
			if !ok {
				t.Fatalf("%s missing _count for server %s", name, srv)
			}
			if inf := buckets[srv+"|+Inf"]; inf != count {
				t.Errorf("%s server %s: +Inf bucket %v != _count %v", name, srv, inf, count)
			}
			if _, ok := sums[srv]; !ok {
				t.Errorf("%s missing _sum for server %s", name, srv)
			}
			if count == 0 && sums[srv] != 0 {
				t.Errorf("%s server %s: zero count but sum %v", name, srv, sums[srv])
			}
		}
	}
	// Count pins: one end-to-end latency sample per coordinator-ledgered
	// traversal (startCluster runs 3), one queue-wait and one step-compute
	// sample per popped executor group.
	var travels float64
	for i := 0; i < c.Servers(); i++ {
		srv := strconv.Itoa(i)
		travels += vals["graphtrek_travel_latency_seconds_count"][srv]
		groups := vals["graphtrek_queue_groups_total"][srv]
		if got := vals["graphtrek_queue_wait_seconds_count"][srv]; got != groups {
			t.Errorf("server %s: queue_wait count %v != queue_groups_total %v", srv, got, groups)
		}
		if got := vals["graphtrek_step_compute_seconds_count"][srv]; got != groups {
			t.Errorf("server %s: step_compute count %v != queue_groups_total %v", srv, got, groups)
		}
	}
	if travels != 3 {
		t.Errorf("travel_latency count across cluster = %v, want 3 (one per traversal)", travels)
	}
}

// TestEventsEndpoint pins /events to a valid JSON event array. An
// unreplicated, fault-free cluster records no control-plane events, so the
// timeline is empty — but it must still be a well-formed array.
func TestEventsEndpoint(t *testing.T) {
	_, ts := startCluster(t)
	body, resp := get(t, ts.URL+"/events")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var evs []struct {
		Type         string `json:"type"`
		TimeUnixNano int64  `json:"time_unix_nano"`
		Server       int    `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events is not a JSON array: %v\n%s", err, body)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeUnixNano < evs[i-1].TimeUnixNano {
			t.Errorf("merged timeline out of order at %d: %d after %d", i, evs[i].TimeUnixNano, evs[i-1].TimeUnixNano)
		}
	}
}

// TestStatusEndpoint checks /status end to end on an unreplicated cluster:
// one document per server, executor gauges populated, cache statistics
// present, no partition rows, and every server ready.
func TestStatusEndpoint(t *testing.T) {
	c, ts := startCluster(t)
	body, resp := get(t, ts.URL+"/status")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var docs []struct {
		Server     int  `json:"server"`
		Ready      bool `json:"ready"`
		QueueLen   int  `json:"queue_len"`
		HighWater  int  `json:"queue_high_water"`
		Partitions []struct {
			Part int `json:"part"`
		} `json:"partitions"`
		Cache struct {
			VtxHits   int64 `json:"vtx_hits"`
			VtxMisses int64 `json:"vtx_misses"`
			AdjHits   int64 `json:"adj_hits"`
			AdjMisses int64 `json:"adj_misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatalf("/status is not a JSON array: %v\n%s", err, body)
	}
	if len(docs) != c.Servers() {
		t.Fatalf("%d status documents, want %d", len(docs), c.Servers())
	}
	var touched int64
	for i, d := range docs {
		if d.Server != i {
			t.Errorf("document %d is for server %d", i, d.Server)
		}
		if !d.Ready {
			t.Errorf("server %d not ready on an unreplicated cluster", d.Server)
		}
		if len(d.Partitions) != 0 {
			t.Errorf("server %d reports %d partitions without replication", d.Server, len(d.Partitions))
		}
		if d.HighWater < 0 || d.QueueLen < 0 {
			t.Errorf("server %d: negative queue gauges %d/%d", d.Server, d.QueueLen, d.HighWater)
		}
		touched += d.Cache.VtxHits + d.Cache.VtxMisses + d.Cache.AdjHits + d.Cache.AdjMisses
	}
	_ = touched // in-memory stores may not expose cache statistics at all
}

// TestReadyzEndpoint pins /readyz on a healthy cluster: 200 with an
// aggregate ready verdict and one per-server entry.
func TestReadyzEndpoint(t *testing.T) {
	c, ts := startCluster(t)
	body, resp := get(t, ts.URL+"/readyz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var rep struct {
		Ready   bool `json:"ready"`
		Servers []struct {
			Server  int      `json:"server"`
			Ready   bool     `json:"ready"`
			Reasons []string `json:"reasons"`
		} `json:"servers"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Ready {
		t.Errorf("healthy cluster not ready: %s", body)
	}
	if len(rep.Servers) != c.Servers() {
		t.Errorf("%d server entries, want %d", len(rep.Servers), c.Servers())
	}
	for _, s := range rep.Servers {
		if !s.Ready || len(s.Reasons) != 0 {
			t.Errorf("server %d unready on a healthy cluster: %v", s.Server, s.Reasons)
		}
	}
}

func TestTracesEndpoint(t *testing.T) {
	_, ts := startCluster(t)
	body, resp := get(t, ts.URL+"/traces")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var rep obs.TraceReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) == 0 || len(rep.Steps) == 0 {
		t.Fatalf("empty trace report: %d spans, %d steps", len(rep.Spans), len(rep.Steps))
	}
	if len(rep.Summaries) != 3 {
		t.Errorf("summaries = %d, want 3 (one per traversal)", len(rep.Summaries))
	}
	// Filter by one summarized traversal: only its spans come back, and
	// their count matches the ledger accounting.
	sum := rep.Summaries[0]
	body, _ = get(t, fmt.Sprintf("%s/traces?travel=%d", ts.URL, sum.Travel))
	var one obs.TraceReport
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Summaries) != 1 || one.Summaries[0].Travel != sum.Travel {
		t.Errorf("filtered summaries = %+v", one.Summaries)
	}
	for _, sp := range one.Spans {
		if sp.Travel != sum.Travel {
			t.Errorf("span for travel %d leaked into filter for %d", sp.Travel, sum.Travel)
		}
	}
	if len(one.Spans) != sum.Created {
		t.Errorf("%d spans for travel %d, ledger created %d", len(one.Spans), sum.Travel, sum.Created)
	}
}

func TestTracesBadQuery(t *testing.T) {
	_, ts := startCluster(t)
	resp, err := http.Get(ts.URL + "/traces?travel=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// getError expects a non-200 answer and returns its decoded JSON error
// body, pinning both the status and the machine-readable error contract.
func getError(t *testing.T, url string, wantCode int) map[string]string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d\n%s", url, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: error content type %q, want application/json", url, ct)
	}
	var msg map[string]string
	if err := json.Unmarshal(body, &msg); err != nil {
		t.Fatalf("GET %s: error body is not JSON: %v\n%s", url, err, body)
	}
	if msg["error"] == "" {
		t.Fatalf("GET %s: error body has no error field: %s", url, body)
	}
	return msg
}

// firstTravel pulls a summarized traversal id off /traces.
func firstTravel(t *testing.T, ts *httptest.Server) obs.TraceReport {
	t.Helper()
	body, _ := get(t, ts.URL+"/traces")
	var rep obs.TraceReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Summaries) == 0 {
		t.Fatal("no traversal summaries buffered")
	}
	return rep
}

// TestDAGEndpoint checks /traces/dag end to end: the assembled DAG for a
// completed traversal passes the ledger cross-check, and its node count,
// roots and critical path come back in the JSON document.
func TestDAGEndpoint(t *testing.T) {
	_, ts := startCluster(t)
	sum := firstTravel(t, ts).Summaries[0]
	body, resp := get(t, fmt.Sprintf("%s/traces/dag?travel=%d", ts.URL, sum.Travel))
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var dag struct {
		Travel  uint64           `json:"travel"`
		Summary *json.RawMessage `json:"summary"`
		Nodes   []struct {
			Exec   uint64 `json:"exec"`
			Parent uint64 `json:"parent"`
		} `json:"nodes"`
		Roots    []uint64 `json:"roots"`
		Orphans  []uint64 `json:"orphans"`
		Critical *struct {
			DurationNs int64 `json:"duration_ns"`
		} `json:"critical_path"`
	}
	if err := json.Unmarshal([]byte(body), &dag); err != nil {
		t.Fatal(err)
	}
	if dag.Travel != sum.Travel {
		t.Errorf("dag travel = %d, want %d", dag.Travel, sum.Travel)
	}
	if len(dag.Nodes) != sum.Created {
		t.Errorf("dag nodes = %d, ledger created %d", len(dag.Nodes), sum.Created)
	}
	if len(dag.Orphans) != 0 {
		t.Errorf("orphans = %v on a fault-free fabric", dag.Orphans)
	}
	if len(dag.Roots) == 0 || dag.Summary == nil {
		t.Errorf("dag missing roots (%v) or summary", dag.Roots)
	}
	if dag.Critical == nil || dag.Critical.DurationNs <= 0 {
		t.Errorf("dag critical path = %+v", dag.Critical)
	}
	if dag.Critical != nil && dag.Critical.DurationNs > sum.ElapsedNs {
		t.Errorf("critical path %dns exceeds traversal elapsed %dns", dag.Critical.DurationNs, sum.ElapsedNs)
	}
}

// TestChromeEndpoint checks /traces/chrome emits parseable trace_event
// JSON with one slice per execution.
func TestChromeEndpoint(t *testing.T) {
	_, ts := startCluster(t)
	sum := firstTravel(t, ts).Summaries[0]
	body, resp := get(t, fmt.Sprintf("%s/traces/chrome?travel=%d", ts.URL, sum.Travel))
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var slices int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			slices++
		}
	}
	if slices != sum.Created {
		t.Errorf("chrome export has %d slices, ledger created %d", slices, sum.Created)
	}
}

// TestDAGEndpointErrors pins the error contract of the DAG endpoints:
// missing travel parameter is a 400, an unknown travel a 404, and both
// carry JSON bodies.
func TestDAGEndpointErrors(t *testing.T) {
	_, ts := startCluster(t)
	getError(t, ts.URL+"/traces/dag", http.StatusBadRequest)
	getError(t, ts.URL+"/traces/dag?travel=banana", http.StatusBadRequest)
	getError(t, ts.URL+"/traces/dag?travel=999999", http.StatusNotFound)
	getError(t, ts.URL+"/traces/chrome?travel=999999", http.StatusNotFound)
	msg := getError(t, ts.URL+"/traces?travel=999999", http.StatusNotFound)
	if !strings.Contains(msg["error"], "999999") {
		t.Errorf("404 body does not name the travel: %q", msg["error"])
	}
}

// TestSlowEndpoint drives the slow-traversal recorder through HTTP: with a
// 1ns threshold every traversal is captured, and /traces/slow serves the
// assembled, ledger-complete DAGs.
func TestSlowEndpoint(t *testing.T) {
	c, err := graphtrek.NewCluster(graphtrek.Options{Servers: 2, SlowTravelNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, v := range []graphtrek.Vertex{{ID: 1, Label: "User"}, {ID: 10, Label: "Execution"}} {
		if err := c.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddEdge(graphtrek.Edge{Src: 1, Dst: 10, Label: "run"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(graphtrek.V(1).E("run"), graphtrek.ModeGraphTrek); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(obs.NewMux(c.Server(0), c.Server(1)))
	t.Cleanup(ts.Close)
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, resp := get(t, ts.URL+"/traces/slow")
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		var slow []struct {
			Travel uint64 `json:"travel"`
			Nodes  []struct {
				Exec uint64 `json:"exec"`
			} `json:"nodes"`
			Summary *struct {
				Created int `json:"created"`
			} `json:"summary"`
		}
		if err := json.Unmarshal([]byte(body), &slow); err != nil {
			t.Fatal(err)
		}
		if len(slow) > 0 {
			d := slow[0]
			if d.Summary == nil || len(d.Nodes) != d.Summary.Created {
				t.Fatalf("captured DAG inconsistent: %s", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no slow-traversal DAG served before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthAndPprof(t *testing.T) {
	_, ts := startCluster(t)
	body, _ := get(t, ts.URL+"/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz body = %q", body)
	}
	body, _ = get(t, ts.URL+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profiles:\n%.200s", body)
	}
	body, _ = get(t, ts.URL+"/debug/pprof/goroutine?debug=1")
	if !strings.Contains(body, "goroutine profile") {
		t.Errorf("goroutine profile malformed:\n%.200s", body)
	}
}
