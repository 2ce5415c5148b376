// Package obs serves a GraphTrek backend's operational state over HTTP:
// Prometheus-style counter and histogram exposition (/metrics), Go runtime
// profiling (/debug/pprof/*), per-execution trace inspection (/traces),
// the cluster event journal (/events), the replication status document
// (/status), a liveness probe (/healthz) and a replication-aware readiness
// probe (/readyz). The endpoint is opt-in — a server without an obs
// listener runs exactly as before — and read-only: nothing served here can
// mutate engine state.
//
// Every document is built by the server method that also answers the wire
// pull for it (core.Server.SpanDump, Events, Status), and merged across
// targets by the function a client's cluster-wide pull uses: obs adds only
// the HTTP framing. The /metrics exposition is one loop over
// metrics.Fields() — every per-server number, each with one tracker — plus
// Target.Histograms() for the native latency histograms, so everything the
// engine records is scrapeable without obs needing a per-metric update.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"graphtrek/internal/events"
	"graphtrek/internal/metrics"
	"graphtrek/internal/status"
	"graphtrek/internal/trace"
)

// Target is the engine surface obs exposes; *core.Server implements it.
type Target interface {
	// ID is the backend's node id, used as the exposition's server label.
	ID() int
	// Metrics snapshots every per-server number.
	Metrics() metrics.Snapshot
	// Histograms snapshots the native latency histograms.
	Histograms() []metrics.HistogramSnapshot
	// SpanDump returns the buffered spans and coordinator summaries of one
	// traversal (travel 0: all), the span pull's document.
	SpanDump(travel uint64) trace.SpanDump
	// SlowTravels returns captured slow-traversal DAGs, oldest first.
	SlowTravels() []*trace.DAG
	// Events returns the buffered control-plane event journal.
	Events() []events.Event
	// Status assembles the live status document, readiness included.
	Status() status.Server
}

// NewMux builds the observability handler for one or more local backends
// (one in cmd/graphtrek-server; several when a whole simulated cluster
// runs in-process).
func NewMux(targets ...Target) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		serveMetrics(w, targets)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		serveTraces(w, r, targets)
	})
	mux.HandleFunc("/traces/dag", func(w http.ResponseWriter, r *http.Request) {
		serveDAG(w, r, targets, false)
	})
	mux.HandleFunc("/traces/chrome", func(w http.ResponseWriter, r *http.Request) {
		serveDAG(w, r, targets, true)
	})
	mux.HandleFunc("/traces/slow", func(w http.ResponseWriter, r *http.Request) {
		serveSlow(w, targets)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, targets)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		serveStatus(w, targets)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		serveReady(w, targets)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetrics renders the Prometheus text exposition format (version
// 0.0.4): every metrics.Fields() row per target (process-wide fields once,
// unlabeled), then the native latency histograms in real histogram form
// (_bucket/_sum/_count with seconds-valued le bounds).
func serveMetrics(w http.ResponseWriter, targets []Target) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snaps := make([]metrics.Snapshot, len(targets))
	for i, t := range targets {
		snaps[i] = t.Metrics()
	}
	// Process-wide fields read the runtime once: in-process clusters share
	// one Go runtime, and per-server copies of the same value would multiply
	// under a PromQL sum().
	var rt metrics.Snapshot
	metrics.ReadRuntime(&rt)
	for _, f := range metrics.Fields() {
		typ := "counter"
		if f.Gauge {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP graphtrek_%s %s\n", f.Name, f.Help)
		fmt.Fprintf(w, "# TYPE graphtrek_%s %s\n", f.Name, typ)
		if f.Process {
			fmt.Fprintf(w, "graphtrek_%s %d\n", f.Name, f.Get(rt))
			continue
		}
		for i, t := range targets {
			fmt.Fprintf(w, "graphtrek_%s{server=%q} %d\n", f.Name, strconv.Itoa(t.ID()), f.Get(snaps[i]))
		}
	}
	serveHistograms(w, targets)
}

// formatLE renders a nanosecond bucket bound as a seconds-valued le label,
// the base unit Prometheus histograms use for durations.
func formatLE(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// serveHistograms renders every Target.Histograms() entry as a native
// Prometheus histogram: cumulative _bucket series over the shared
// metrics.DefaultLadderNs bound ladder plus +Inf, then _sum (seconds) and
// _count. Every ladder bound coincides with a native bucket upper edge
// (histogram.go pins the alignment), so the cumulative counts are exact,
// not interpolated.
func serveHistograms(w http.ResponseWriter, targets []Target) {
	if len(targets) == 0 {
		return
	}
	hists := make([][]metrics.HistogramSnapshot, len(targets))
	for i, t := range targets {
		hists[i] = t.Histograms()
	}
	for hi, h := range hists[0] {
		name := "graphtrek_" + h.Name
		fmt.Fprintf(w, "# HELP %s %s\n", name, h.Help)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for i, t := range targets {
			hs := hists[i][hi].Hist
			srv := strconv.Itoa(t.ID())
			for _, bound := range metrics.DefaultLadderNs {
				fmt.Fprintf(w, "%s_bucket{server=%q,le=%q} %d\n", name, srv, formatLE(bound), hs.CumulativeLE(bound))
			}
			fmt.Fprintf(w, "%s_bucket{server=%q,le=\"+Inf\"} %d\n", name, srv, hs.Count)
			fmt.Fprintf(w, "%s_sum{server=%q} %s\n", name, srv, strconv.FormatFloat(float64(hs.Sum)/1e9, 'g', -1, 64))
			fmt.Fprintf(w, "%s_count{server=%q} %d\n", name, srv, hs.Count)
		}
	}
}

// serveEvents answers /events with every target's journal merged into one
// timeline by events.Merge, as a client's cluster-wide pull merges them.
func serveEvents(w http.ResponseWriter, targets []Target) {
	journals := make([][]events.Event, len(targets))
	for i, t := range targets {
		journals[i] = t.Events()
	}
	writeJSON(w, events.Merge(journals...))
}

// statuses reads one status document per target, ordered as the targets
// were registered.
func statuses(targets []Target) []status.Server {
	all := make([]status.Server, 0, len(targets))
	for _, t := range targets {
		all = append(all, t.Status())
	}
	return all
}

// serveStatus answers /status with one status document per target.
func serveStatus(w http.ResponseWriter, targets []Target) {
	writeJSON(w, statuses(targets))
}

// writeJSON answers with doc as indented JSON.
func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// readyReport is the /readyz JSON body: the aggregate verdict plus each
// target's readiness detail.
type readyReport struct {
	Ready   bool          `json:"ready"`
	Servers []serverReady `json:"servers"`
}

type serverReady struct {
	Server  int      `json:"server"`
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// serveReady answers /readyz from the status documents' readiness: 200
// when every target can meet its durability contract, 503 with per-server
// reasons otherwise. Distinct from /healthz (pure liveness): a server
// mid-handoff or below write quorum is alive but should be rotated out of
// write traffic.
func serveReady(w http.ResponseWriter, targets []Target) {
	rep := readyReport{Ready: true}
	for _, st := range statuses(targets) {
		rep.Servers = append(rep.Servers, serverReady{Server: st.Server, Ready: st.Ready, Reasons: st.NotReadyReasons})
		rep.Ready = rep.Ready && st.Ready
	}
	w.Header().Set("Content-Type", "application/json")
	if !rep.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// TraceReport is the /traces JSON document.
type TraceReport struct {
	// Travel is the queried traversal id; 0 means everything buffered.
	Travel uint64 `json:"travel"`
	// Summaries holds coordinator records for the queried traversal(s).
	Summaries []trace.TravelSummary `json:"summaries,omitempty"`
	// Steps is the per-(step, server) aggregate of the matching spans.
	Steps []trace.StepStat `json:"steps"`
	// Spans lists the matching raw spans, oldest first per server.
	Spans []trace.Span `json:"spans"`
}

// jsonError writes an error as a JSON body with the right Content-Type —
// machine consumers of these endpoints should never have to sniff
// text/plain error pages out of an otherwise-JSON API.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// travelParam parses the travel query parameter; ok is false after an
// error response has been written.
func travelParam(w http.ResponseWriter, r *http.Request) (travel uint64, ok bool) {
	q := r.URL.Query().Get("travel")
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad travel id: "+err.Error())
		return 0, false
	}
	return v, true
}

// dumps reads every target's span dump for the traversal (travel 0: all).
func dumps(targets []Target, travel uint64) []trace.SpanDump {
	out := make([]trace.SpanDump, len(targets))
	for i, t := range targets {
		out[i] = t.SpanDump(travel)
	}
	return out
}

// serveTraces answers /traces?travel=<id> with the targets' span dumps
// joined: the buffered spans, their per-step aggregate, and any matching
// coordinator summaries. A specific travel id that matches nothing — no
// spans, no summary on any target — is a 404, not an empty 200: the
// traversal either never ran here or its trace has been evicted, and
// callers should be able to tell that apart from a traced traversal that
// produced no work.
func serveTraces(w http.ResponseWriter, r *http.Request, targets []Target) {
	travel, ok := travelParam(w, r)
	if !ok {
		return
	}
	rep := TraceReport{Travel: travel}
	for _, d := range dumps(targets, travel) {
		rep.Spans = append(rep.Spans, d.Spans...)
		rep.Summaries = append(rep.Summaries, d.Summaries...)
	}
	if travel != 0 && len(rep.Spans) == 0 && len(rep.Summaries) == 0 {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("no trace data for travel %d (never traced here, or evicted)", travel))
		return
	}
	sort.Slice(rep.Summaries, func(i, j int) bool { return rep.Summaries[i].Travel < rep.Summaries[j].Travel })
	rep.Steps = trace.Aggregate(rep.Spans)
	writeJSON(w, rep)
}

// serveDAG answers /traces/dag?travel=<id> with the traversal's assembled
// causal DAG (ledger cross-check, critical path), or — with chrome set —
// /traces/chrome?travel=<id> with the same DAG rendered in Chrome
// trace_event format for about:tracing / Perfetto.
func serveDAG(w http.ResponseWriter, r *http.Request, targets []Target, chrome bool) {
	travel, ok := travelParam(w, r)
	if !ok {
		return
	}
	if travel == 0 {
		jsonError(w, http.StatusBadRequest, "travel parameter required (a DAG is per-traversal)")
		return
	}
	d := trace.AssembleDumps(travel, dumps(targets, travel), nil)
	if len(d.Nodes) == 0 && d.Summary == nil {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("no trace data for travel %d (never traced here, or evicted)", travel))
		return
	}
	if !chrome {
		writeJSON(w, d)
		return
	}
	buf, err := d.ChromeTrace()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// serveSlow answers /traces/slow with every captured slow-traversal DAG
// across the targets, oldest first per target.
func serveSlow(w http.ResponseWriter, targets []Target) {
	slow := make([]*trace.DAG, 0, 8)
	for _, t := range targets {
		slow = append(slow, t.SlowTravels()...)
	}
	writeJSON(w, slow)
}

// ListenAndServe starts the observability endpoint on addr in a new
// goroutine and returns the server for shutdown. Errors after startup
// (including normal shutdown) are reported to errFn if non-nil.
func ListenAndServe(addr string, errFn func(error), targets ...Target) *http.Server {
	srv := &http.Server{Addr: addr, Handler: NewMux(targets...)}
	go func() {
		err := srv.ListenAndServe()
		if err != nil && err != http.ErrServerClosed && errFn != nil {
			errFn(err)
		}
	}()
	return srv
}
