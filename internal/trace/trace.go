// Package trace records per-traversal-execution spans on each backend
// server — the observable form of the paper's §IV-C status-and-progress
// tracing. The coordinator ledger already logs every execution's creation
// and termination to detect quiescence; this package captures *what each
// execution did* on its way to termination: which step it served, how many
// frontier entries it carried, how long those entries waited in the shared
// executor queue, how the traversal-affiliate cache and execution merging
// disposed of them, and how long the execution lived on its server.
//
// Spans are buffered in a fixed-capacity ring per server (old spans are
// evicted, never blocking the engine) and aggregated on demand into
// per-(step, server) cost breakdowns — the per-operator profiling that
// traversal engines like GRAPHITE and the Gremlin traversal machine treat
// as a first-class primitive. Because exactly one span is recorded per
// terminated execution, span counts double as a cross-check of the
// ledger's quiescence accounting: for a cleanly completed traversal, the
// spans recorded across the cluster equal the executions the ledger saw
// created and terminated.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span is one completed traversal execution, as observed by the server
// that ran it. The per-entry disposition counts satisfy the same §VII-A
// identity as the server counters: Redundant + Combined + Real ==
// Frontier for executions that processed normally.
type Span struct {
	// Travel is the cluster-wide traversal id.
	Travel uint64 `json:"travel"`
	// Exec is the execution id registered in the coordinator ledger.
	Exec uint64 `json:"exec"`
	// Parent is the ledger id of the execution whose outputs created this
	// one — the causal edge the DAG assembler joins on. Zero marks a root
	// execution (client submission or seed scan): real execution ids carry
	// a nonzero server tag, so zero is unambiguous.
	Parent uint64 `json:"parent,omitempty"`
	// Server ran the execution.
	Server int32 `json:"server"`
	// Step is the traversal step the execution served.
	Step int32 `json:"step"`
	// Frontier is the number of entries the execution carried.
	Frontier int `json:"frontier"`
	// Redundant entries were dropped by the traversal-affiliate cache.
	Redundant int `json:"redundant"`
	// Combined entries were served by another entry's merged disk access.
	Combined int `json:"combined"`
	// Real entries triggered a storage access of their own.
	Real int `json:"real"`
	// QueueWaitNs is the worst enqueue→pop wait among the execution's
	// entries in the shared executor queue.
	QueueWaitNs int64 `json:"queue_wait_ns"`
	// WallNs is the execution's creation→termination time on this server,
	// queue wait included.
	WallNs int64 `json:"wall_ns"`
	// StartNs is the execution's creation time as unix nanoseconds, so
	// spans gathered from several servers order on one timeline (the
	// in-process fabric and single-host TCP deployments share a clock;
	// cross-host skew shows up as negative parent→child gaps, which the
	// assembler clamps).
	StartNs int64 `json:"start_ns"`
	// FetchNs is time spent in storage vertex fetches (the merged disk
	// access of §V-B), attributed to the group head that paid it. The step
	// predicates run on the fetched bytes inside it.
	FetchNs int64 `json:"fetch_ns,omitempty"`
	// ScanNs is time spent iterating next-step edges, dispatch buffering
	// included (DispatchNs is the contained sub-phase).
	ScanNs int64 `json:"scan_ns,omitempty"`
	// DispatchNs is time spent buffering frontier dispatches toward their
	// owners — the fan-out cost. A sub-interval of ScanNs, not additive
	// with it.
	DispatchNs int64 `json:"dispatch_ns,omitempty"`
	// Err is the first failure the execution observed, if any.
	Err string `json:"err,omitempty"`
}

// EndNs is the span's termination time as unix nanoseconds.
func (s Span) EndNs() int64 { return s.StartNs + s.WallNs }

// Builder accumulates one in-flight execution's span. All methods are safe
// for concurrent use — merged scheduler groups let several workers touch
// the same execution — and are no-ops on a nil receiver, so the engine can
// run with tracing disabled without branching at every call site.
type Builder struct {
	travel   uint64
	exec     uint64
	parent   uint64
	server   int32
	step     int32
	frontier int
	start    time.Time

	redundant  atomic.Int64
	combined   atomic.Int64
	real       atomic.Int64
	waitNs     atomic.Int64
	fetchNs    atomic.Int64
	scanNs     atomic.Int64
	dispatchNs atomic.Int64
	err        atomic.Pointer[string]
}

// Begin starts a span for an execution of `frontier` entries created by
// `parent` (zero for roots).
func Begin(travel, exec, parent uint64, server, step int32, frontier int) *Builder {
	return &Builder{
		travel: travel, exec: exec, parent: parent, server: server,
		step: step, frontier: frontier, start: time.Now(),
	}
}

// AddRedundant counts n cache-eliminated entries.
func (b *Builder) AddRedundant(n int) {
	if b != nil {
		b.redundant.Add(int64(n))
	}
}

// AddCombined counts n merge-served entries.
func (b *Builder) AddCombined(n int) {
	if b != nil {
		b.combined.Add(int64(n))
	}
}

// AddReal counts n entries that paid a real storage access.
func (b *Builder) AddReal(n int) {
	if b != nil {
		b.real.Add(int64(n))
	}
}

// ObserveWait records one entry's enqueue→pop wait, keeping the maximum.
func (b *Builder) ObserveWait(d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	for {
		cur := b.waitNs.Load()
		if int64(d) <= cur || b.waitNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// AddFetch accumulates storage vertex-fetch time.
func (b *Builder) AddFetch(d time.Duration) {
	if b != nil {
		b.fetchNs.Add(int64(d))
	}
}

// AddScan accumulates next-step edge-scan time (dispatch buffering
// included).
func (b *Builder) AddScan(d time.Duration) {
	if b != nil {
		b.scanNs.Add(int64(d))
	}
}

// AddDispatch accumulates dispatch fan-out (outbox buffering) time.
func (b *Builder) AddDispatch(d time.Duration) {
	if b != nil {
		b.dispatchNs.Add(int64(d))
	}
}

// Fail records the execution's failure; the first recorded message wins.
func (b *Builder) Fail(msg string) {
	if b != nil {
		b.err.CompareAndSwap(nil, &msg)
	}
}

// Finish seals the builder into an immutable Span. Call it exactly once,
// when the execution terminates.
func (b *Builder) Finish() Span {
	s := Span{
		Travel: b.travel, Exec: b.exec, Parent: b.parent,
		Server: b.server, Step: b.step,
		Frontier:    b.frontier,
		Redundant:   int(b.redundant.Load()),
		Combined:    int(b.combined.Load()),
		Real:        int(b.real.Load()),
		QueueWaitNs: b.waitNs.Load(),
		WallNs:      int64(time.Since(b.start)),
		StartNs:     b.start.UnixNano(),
		FetchNs:     b.fetchNs.Load(),
		ScanNs:      b.scanNs.Load(),
		DispatchNs:  b.dispatchNs.Load(),
	}
	if e := b.err.Load(); e != nil {
		s.Err = *e
	}
	return s
}

// TravelSummary is the coordinator's end-of-traversal trace record,
// written when the ledger retires: the quiescence accounting (created and
// terminated execution totals) plus the outcome. Created == Ended for a
// cleanly completed traversal; the recorded span count across the cluster
// should match both.
type TravelSummary struct {
	// Travel is the traversal id.
	Travel uint64 `json:"travel"`
	// Mode names the engine that ran the traversal.
	Mode string `json:"mode"`
	// Coordinator is the backend that kept the ledger.
	Coordinator int32 `json:"coordinator"`
	// Created is the total executions registered over the traversal's life.
	Created int `json:"created"`
	// Ended is the total executions that reported termination.
	Ended int `json:"ended"`
	// Results is the number of distinct vertices returned.
	Results int `json:"results"`
	// Err is the traversal's failure, if it did not complete cleanly.
	Err string `json:"err,omitempty"`
	// ElapsedNs is ledger creation → retirement at the coordinator.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// StepStat is one row of an aggregated trace: every span of one step on
// one server, summed. Server == -1 after MergeSteps folds servers together.
type StepStat struct {
	Step      int32 `json:"step"`
	Server    int32 `json:"server"`
	Execs     int   `json:"execs"`
	Frontier  int   `json:"frontier"`
	Redundant int   `json:"redundant"`
	Combined  int   `json:"combined"`
	Real      int   `json:"real"`
	// MaxQueueWaitNs is the worst entry wait across the rolled-up spans.
	MaxQueueWaitNs int64 `json:"max_queue_wait_ns"`
	// WallNs sums the rolled-up spans' wall times.
	WallNs int64 `json:"wall_ns"`
	// MaxWallNs is the slowest single execution — the straggler signal.
	MaxWallNs int64 `json:"max_wall_ns"`
	// Errs counts spans that recorded a failure.
	Errs int `json:"errs,omitempty"`
}

func (st *StepStat) add(s Span) {
	st.Execs++
	st.Frontier += s.Frontier
	st.Redundant += s.Redundant
	st.Combined += s.Combined
	st.Real += s.Real
	st.MaxQueueWaitNs = max(st.MaxQueueWaitNs, s.QueueWaitNs)
	st.WallNs += s.WallNs
	st.MaxWallNs = max(st.MaxWallNs, s.WallNs)
	if s.Err != "" {
		st.Errs++
	}
}

func (st *StepStat) merge(o StepStat) {
	st.Execs += o.Execs
	st.Frontier += o.Frontier
	st.Redundant += o.Redundant
	st.Combined += o.Combined
	st.Real += o.Real
	st.MaxQueueWaitNs = max(st.MaxQueueWaitNs, o.MaxQueueWaitNs)
	st.WallNs += o.WallNs
	st.MaxWallNs = max(st.MaxWallNs, o.MaxWallNs)
	st.Errs += o.Errs
}

// Aggregate rolls spans up into per-(step, server) rows, sorted by step
// then server — the per-operator cost breakdown of a traversal.
func Aggregate(spans []Span) []StepStat {
	type key struct {
		step   int32
		server int32
	}
	byKey := make(map[key]*StepStat)
	for _, s := range spans {
		k := key{s.Step, s.Server}
		st, ok := byKey[k]
		if !ok {
			st = &StepStat{Step: s.Step, Server: s.Server}
			byKey[k] = st
		}
		st.add(s)
	}
	out := make([]StepStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, *st)
	}
	sortStats(out)
	return out
}

// MergeSteps folds per-(step, server) rows — possibly gathered from
// several servers — into one row per step with Server == -1.
func MergeSteps(stats []StepStat) []StepStat {
	byStep := make(map[int32]*StepStat)
	for _, st := range stats {
		m, ok := byStep[st.Step]
		if !ok {
			m = &StepStat{Step: st.Step, Server: -1}
			byStep[st.Step] = m
		}
		m.merge(st)
	}
	out := make([]StepStat, 0, len(byStep))
	for _, st := range byStep {
		out = append(out, *st)
	}
	sortStats(out)
	return out
}

// Sort orders rows by step then server — the canonical display order for
// rows concatenated from several servers' responses.
func Sort(stats []StepStat) { sortStats(stats) }

func sortStats(stats []StepStat) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Step != stats[j].Step {
			return stats[i].Step < stats[j].Step
		}
		return stats[i].Server < stats[j].Server
	})
}
