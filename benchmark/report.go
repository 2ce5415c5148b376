package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"graphtrek/internal/metrics"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run of one workload, as kept by -json.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Seconds    float64  `json:"seconds"`
	NProc      int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Problems   []string `json:"problems,omitempty"`
	// Samples counts the operations behind the percentiles.
	Samples map[string]int `json:"samples"`
	result
}

func newReport(workload string, seed int64, trace bool, seconds float64) *report {
	return &report{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Samples: map[string]int{},
		result:  result{Metrics: map[string]metric{}},
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes every metric by name with its unit, then the result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d trace=%v seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.NProc, r.GoMaxProcs, r.GoVersion, r.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  samples %-32s %16d\n", n, r.Samples[n])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	line, _ := json.Marshal(r.result) // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

// appendJSON adds the report as one line to path.
func (r *report) appendJSON(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- statistics --------------------------------------------------------

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = max(1, min(j, n-1))
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func allLatencies(logs []clientLog, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, l := range logs {
		for _, s := range l.samples {
			if keep(s) {
				out = append(out, s.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func anyOp(sample) bool     { return true }
func isRead(s sample) bool  { return s.kind == opRead }
func isWrite(s sample) bool { return s.kind == opWrite }

// --- end-to-end metrics ------------------------------------------------

// cpuMsPerOp is the process's CPU time over a phase divided by the phase's
// operations.
func (p *phase) cpuMsPerOp() float64 {
	done, _ := p.ops()
	return ratio(ms(p.after.cpu-p.before.cpu), float64(done))
}

func (r *report) endToEnd(p *phase, setups []float64, heapLive uint64, storeAmp float64) {
	done, _ := p.ops()
	lat := allLatencies(p.logs, anyOp)
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", float64(done)/p.dur.Seconds(), "1/s")
	r.set("lat_p50_ms", ms(percentile(lat, 0.50)), "ms")
	r.set("lat_p90_ms", ms(percentile(lat, 0.90)), "ms")
	r.set("cpu_ms_per_op", p.cpuMsPerOp(), "ms")
	r.set("allocs_per_op", ratio(float64(p.after.mem.Mallocs-p.before.mem.Mallocs), float64(done)), "count")
	r.set("alloc_kb_per_op", ratio(float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc)/1e3, float64(done)), "kB")
	r.set("heap_live_mb", float64(heapLive)/1e6, "MB")
	r.set("store_amp", storeAmp, "ratio")
	r.Samples["ops"] = done
}

// --- per-layer metrics -------------------------------------------------

type layerMetric struct{ name, unit string }

// perLayerNames lists every per-layer metric in report order; each traced
// run reports all of them, zero where the workload does not reach the layer.
var perLayerNames = []layerMetric{
	{"client.compile_us", "us"}, {"client.overhead_ms", "ms"},
	{"client.lat_p50_ms", "ms"}, {"client.lat_p99_ms", "ms"},
	{"client.read_lat_p50_ms", "ms"}, {"client.read_lat_p90_ms", "ms"},
	{"client.write_lat_p50_ms", "ms"}, {"client.write_lat_p90_ms", "ms"},
	{"client.write_muts_per_s", "1/s"},
	{"client.open_lat_p50_ms", "ms"}, {"client.open_lat_p99_ms", "ms"},
	{"client.open_late_p99_ms", "ms"}, {"client.open_failed", "count"},

	{"core.travel_p50_ms", "ms"}, {"core.travel_p95_ms", "ms"},
	{"core.handle_us_per_msg", "us"}, {"core.handle_msgs_per_op", "count"}, {"core.handle_ms_per_op", "ms"},
	{"core.handle_ms_per_op.start", "ms"}, {"core.handle_ms_per_op.dispatch", "ms"},
	{"core.handle_ms_per_op.exec_events", "ms"}, {"core.handle_ms_per_op.result", "ms"},
	{"core.handle_ms_per_op.write_req", "ms"}, {"core.handle_ms_per_op.repl_append", "ms"},
	{"core.handle_ms_per_op.repl_ack", "ms"},
	{"core.step_compute_ms_per_op", "ms"}, {"core.exec_self_ms_per_op", "ms"},
	{"core.execs_per_op", "count"}, {"core.received_per_op", "count"}, {"core.realio_per_op", "count"},
	{"core.combined_frac", "ratio"}, {"core.msgs_sent_per_op", "count"},
	{"core.rejected", "count"}, {"core.msgs_failed", "count"},
	{"core.quorum_write_p50_ms", "ms"}, {"core.quorum_write_p95_ms", "ms"}, {"core.repl_msgs_per_write", "count"},

	{"sched.queue_wait_ms_per_group", "ms"}, {"sched.queue_wait_p95_ms", "ms"},
	{"sched.groups_per_op", "count"}, {"sched.queue_depth_peak", "count"}, {"sched.push_pop_ns_per_item", "ns"},

	{"cache.redundant_frac", "ratio"}, {"cache.check_insert_ns", "ns"},

	{"gstore.cached.busy_ms_per_op", "ms"}, {"gstore.cached.calls_per_op", "count"},
	{"gstore.cached.get_vertex_us", "us"}, {"gstore.cached.scan_ids_us", "us"},
	{"gstore.cached.scan_edges_us", "us"}, {"gstore.cached.lookup_us", "us"},
	{"gstore.cached.edges_per_scan", "count"}, {"gstore.cached.apply_us_per_mut", "us"},
	{"gstore.vtx_hit_frac", "ratio"}, {"gstore.adj_hit_frac", "ratio"}, {"gstore.cache_self_ms_per_op", "ms"},
	{"gstore.store.busy_ms_per_op", "ms"}, {"gstore.store.get_vertex_us", "us"},
	{"gstore.store.scan_ids_us", "us"}, {"gstore.store.scan_edges_us", "us"},
	{"gstore.store.apply_us_per_mut", "us"},

	{"kv.gets_per_op", "count"}, {"kv.puts_per_mut", "count"}, {"kv.flushes", "count"},
	{"kv.compactions", "count"}, {"kv.tables", "count"}, {"kv.table_mb", "MB"},

	{"rpc.send_us", "us"}, {"rpc.sends_per_op", "count"}, {"rpc.entries_per_msg", "count"},
	{"rpc.transit_p50_us", "us"}, {"rpc.transit_p95_us", "us"}, {"rpc.send_failures", "count"},

	{"wire.bytes_per_op", "B"}, {"wire.bytes_per_result", "B"}, {"wire.bytes_per_entry", "B"},
	{"wire.encode_ns_per_entry", "ns"}, {"wire.decode_ns_per_entry", "ns"},

	{"metrics.hist_record_ns", "ns"},

	{"bench.trace_overhead_frac", "ratio"}, {"bench.acct_frac", "ratio"},
}

// Server.Histograms() order.
const (
	hTravel = iota
	hQueueWait
	hStepCompute
	hQuorumWrite
)

// histQuantile is the q-quantile of a histogram snapshot in nanoseconds,
// placed inside its bucket by linear interpolation (HistSnapshot.Quantile
// gives the bucket's upper bound, a quarter of an octave away at worst).
func histQuantile(h metrics.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c > 0 && cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(metrics.BucketUpper(i - 1))
			}
			return lo + (float64(metrics.BucketUpper(i))-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(metrics.BucketUpper(metrics.HistBuckets - 1))
}

func histMs(h metrics.HistSnapshot, q float64) float64 { return histQuantile(h, q) / 1e6 }

func meanMs(d []time.Duration) float64 {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return ratio(ms(sum), float64(len(d)))
}

// perLayer fills the layer table from the traced phase p. before and after
// are the untraced phases on either side of it in the same process.
func (r *report) perLayer(before, after, p *phase, churn bool) {
	for _, m := range perLayerNames {
		r.set(m.name, 0, m.unit)
	}
	set := func(name string, v float64) { r.set(name, v, r.Metrics[name].Unit) }

	done, _ := p.ops()
	ops := float64(done)
	t := p.after.trace.sub(p.before.trace)
	srv := p.after.servers.Sub(p.before.servers)
	hist := func(i int) metrics.HistSnapshot { return histSub(p.after.hists[i], p.before.hists[i]) }
	perOpMs := func(ns int64) float64 { return ratio(float64(ns)/1e6, ops) }

	// client
	all := allLatencies(p.logs, anyOp)
	reads := allLatencies(p.logs, isRead)
	writes := allLatencies(p.logs, isWrite)
	travel := hist(hTravel)
	set("client.compile_us", t.meanUs(cClientCompile))
	set("client.lat_p50_ms", ms(percentile(all, 0.50)))
	set("client.lat_p99_ms", ms(percentile(all, 0.99)))
	set("client.read_lat_p50_ms", ms(percentile(reads, 0.50)))
	set("client.read_lat_p90_ms", ms(percentile(reads, 0.90)))
	// Means, because both are exact: the server's histogram keeps a sum.
	set("client.overhead_ms", meanMs(reads)-ratio(float64(travel.Sum)/1e6, float64(travel.Count)))
	if churn {
		set("client.write_lat_p50_ms", ms(percentile(writes, 0.50)))
		set("client.write_lat_p90_ms", ms(percentile(writes, 0.90)))
		set("client.write_muts_per_s", float64(len(writes)*(batchFiles+batchEdges+1))/p.dur.Seconds())
	}
	r.Samples["traced_ops"] = done
	r.Samples["traced_reads"] = len(reads)
	r.Samples["traced_writes"] = len(writes)

	// core
	set("core.travel_p50_ms", histMs(travel, 0.50))
	set("core.travel_p95_ms", histMs(travel, 0.95))
	handled := t.count(handleCalls...)
	set("core.handle_us_per_msg", ratio(float64(t.busyNs(handleCalls...))/1e3, float64(handled)))
	set("core.handle_msgs_per_op", ratio(float64(handled), ops))
	set("core.handle_ms_per_op", perOpMs(t.busyNs(handleCalls...)))
	for _, c := range handleCalls[:len(handleCalls)-1] {
		set("core.handle_ms_per_op."+callNames[c][1][len("handle."):], perOpMs(t.hist[c].Sum))
	}
	step := hist(hStepCompute)
	cachedBusy := t.busyNs(cachedCalls...)
	set("core.step_compute_ms_per_op", perOpMs(step.Sum))
	// Workers fetch vertices and scan edges; index lookups and mutations run
	// in the message handlers, outside step compute.
	set("core.exec_self_ms_per_op", perOpMs(step.Sum-t.busyNs(cCachedGetVertex, cCachedScanIDs, cCachedScanEdges)))
	set("core.execs_per_op", ratio(float64(srv.Execs), ops))
	set("core.received_per_op", ratio(float64(srv.Received), ops))
	set("core.realio_per_op", ratio(float64(srv.RealIO), ops))
	set("core.combined_frac", ratio(float64(srv.Combined), float64(srv.Received)))
	set("core.msgs_sent_per_op", ratio(float64(srv.MsgsSent), ops))
	set("core.rejected", float64(srv.Rejected))
	set("core.msgs_failed", float64(srv.MsgsFailed))
	if churn {
		quorum := hist(hQuorumWrite)
		set("core.quorum_write_p50_ms", histMs(quorum, 0.50))
		set("core.quorum_write_p95_ms", histMs(quorum, 0.95))
		set("core.repl_msgs_per_write", ratio(float64(t.count(cHandleReplAppend, cHandleReplAck)), float64(t.count(cHandleWriteReq))))
	}

	// sched, cache
	set("sched.queue_wait_ms_per_group", ratio(float64(srv.QueueWaitNs)/1e6, float64(srv.QueueGroups)))
	set("sched.queue_wait_p95_ms", histMs(hist(hQueueWait), 0.95))
	set("sched.groups_per_op", ratio(float64(srv.QueueGroups), ops))
	set("sched.queue_depth_peak", float64(p.after.servers.QueueDepthPeak))
	set("cache.redundant_frac", ratio(float64(srv.Redundant), float64(srv.Received)))

	// gstore
	storeBusy := t.busyNs(storeCalls...)
	set("gstore.cached.busy_ms_per_op", perOpMs(cachedBusy))
	set("gstore.cached.calls_per_op", ratio(float64(t.count(cachedCalls...)), ops))
	set("gstore.cached.get_vertex_us", t.meanUs(cCachedGetVertex))
	set("gstore.cached.scan_ids_us", t.meanUs(cCachedScanIDs))
	set("gstore.cached.scan_edges_us", t.meanUs(cCachedScanEdges))
	set("gstore.cached.lookup_us", t.meanUs(cCachedLookup))
	set("gstore.cached.edges_per_scan", ratio(float64(t.edges[cCachedScanIDs]+t.edges[cCachedScanEdges]),
		float64(t.count(cCachedScanIDs, cCachedScanEdges))))
	set("gstore.cached.apply_us_per_mut", t.meanUs(cCachedApply))
	vh, vm := p.after.cache.VtxHits-p.before.cache.VtxHits, p.after.cache.VtxMisses-p.before.cache.VtxMisses
	ah, am := p.after.cache.AdjHits-p.before.cache.AdjHits, p.after.cache.AdjMisses-p.before.cache.AdjMisses
	set("gstore.vtx_hit_frac", ratio(float64(vh), float64(vh+vm)))
	set("gstore.adj_hit_frac", ratio(float64(ah), float64(ah+am)))
	set("gstore.cache_self_ms_per_op", perOpMs(cachedBusy-storeBusy))
	set("gstore.store.busy_ms_per_op", perOpMs(storeBusy))
	set("gstore.store.get_vertex_us", t.meanUs(cStoreGetVertex))
	set("gstore.store.scan_ids_us", t.meanUs(cStoreScanIDs))
	set("gstore.store.scan_edges_us", t.meanUs(cStoreScanEdges))
	set("gstore.store.apply_us_per_mut", t.meanUs(cStoreApply))

	// kv
	set("kv.gets_per_op", ratio(float64(p.after.gets-p.before.gets), ops))
	set("kv.puts_per_mut", ratio(float64(p.after.puts-p.before.puts), float64(len(writes)*(batchFiles+batchEdges+1))))
	set("kv.flushes", float64(p.after.flushes-p.before.flushes))
	set("kv.compactions", float64(p.after.compact-p.before.compact))
	set("kv.tables", float64(p.after.tables))
	set("kv.table_mb", float64(p.after.tableB)/1e6)

	// rpc, wire
	sends := float64(t.hist[cRPCSend].Count)
	set("rpc.send_us", t.meanUs(cRPCSend))
	set("rpc.sends_per_op", ratio(sends, ops))
	set("rpc.entries_per_msg", ratio(float64(t.entries), sends))
	set("rpc.transit_p50_us", histQuantile(t.hist[cRPCTransit], 0.50)/1e3)
	set("rpc.transit_p95_us", histQuantile(t.hist[cRPCTransit], 0.95)/1e3)
	set("rpc.send_failures", float64(p.after.sendErr-p.before.sendErr))
	set("wire.bytes_per_op", ratio(float64(t.wireBytes), ops))
	set("wire.bytes_per_result", ratio(float64(t.wireBytes), float64(t.results)))
	set("wire.bytes_per_entry", ratio(float64(t.wireBytes), float64(t.entries)))
	set("wire.encode_ns_per_entry", ratio(float64(t.hist[cWireEncode].Sum), float64(t.entries)))
	set("wire.decode_ns_per_entry", ratio(float64(t.hist[cWireDecode].Sum), float64(t.entries)))

	// bench: what tracing costs, and how much of the process's CPU time the
	// spans that do not nest in one another account for.
	opsB, _ := before.ops()
	opsA, _ := after.ops()
	untraced := ratio(ms(before.after.cpu-before.before.cpu+after.after.cpu-after.before.cpu), float64(opsB+opsA))
	set("bench.trace_overhead_frac", ratio(p.cpuMsPerOp(), untraced)-1)
	top := t.busyNs(handleCalls...) + t.busyNs(cClientHandle, cClientCompile) + step.Sum
	set("bench.acct_frac", ratio(float64(top), float64(p.after.cpu-p.before.cpu)))
}
