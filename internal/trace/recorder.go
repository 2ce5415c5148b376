package trace

import "sync"

// summaryCap bounds the per-server history of coordinator travel
// summaries. Summaries are tiny and one-per-traversal, so a short history
// suffices for the observability endpoints.
const summaryCap = 512

// RingStats describes a recorder's buffering state, for the /metrics
// endpoint: how many spans were ever recorded, how many are still
// buffered, and how many the ring evicted (a nonzero eviction count warns
// that aggregations over old traversals may be incomplete).
type RingStats struct {
	SpansRecorded uint64 `json:"spans_recorded"`
	SpansBuffered int    `json:"spans_buffered"`
	SpansEvicted  uint64 `json:"spans_evicted"`
	Summaries     int    `json:"summaries"`
}

// Recorder is one server's trace sink: a span ring plus a travel-summary
// ring (populated only on servers that coordinate traversals). A nil
// Recorder is valid and discards everything — the disabled state.
type Recorder struct {
	spans     *Ring[packedSpan]
	summaries *Ring[TravelSummary]

	// errs holds the failure messages of buffered spans by execution id
	// (unique cluster-wide), beside the ring and not in it: almost no span
	// has one, and without the string the ring's elements carry no pointer.
	// mu orders a span's entry with its recording and its eviction.
	mu   sync.Mutex
	errs map[uint64]string
}

// NewRecorder creates a recorder buffering up to spanCap spans.
func NewRecorder(spanCap int) *Recorder {
	return &Recorder{
		spans:     NewRing[packedSpan](spanCap),
		summaries: NewRing[TravelSummary](summaryCap),
		errs:      make(map[uint64]string),
	}
}

// packedSpan is a Span as the ring stores it: the same fields without Err,
// counts as uint32 (an execution carries nowhere near 2^32 entries), 96
// bytes for Span's 128 and nothing for the collector to scan.
type packedSpan struct {
	travel, exec, parent                uint64
	queueWaitNs, wallNs, startNs        int64
	fetchNs, scanNs, dispatchNs         int64
	frontier, redundant, combined, real uint32
	server, step                        int32
}

func pack(s Span) packedSpan {
	return packedSpan{
		travel: s.Travel, exec: s.Exec, parent: s.Parent,
		queueWaitNs: s.QueueWaitNs, wallNs: s.WallNs, startNs: s.StartNs,
		fetchNs: s.FetchNs, scanNs: s.ScanNs, dispatchNs: s.DispatchNs,
		frontier: uint32(s.Frontier), redundant: uint32(s.Redundant),
		combined: uint32(s.Combined), real: uint32(s.Real),
		server: s.Server, step: s.Step,
	}
}

// span unpacks p; err is its failure message, kept outside the ring.
func (p packedSpan) span(err string) Span {
	return Span{
		Travel: p.travel, Exec: p.exec, Parent: p.parent,
		Server: p.server, Step: p.step,
		Frontier: int(p.frontier), Redundant: int(p.redundant),
		Combined: int(p.combined), Real: int(p.real),
		QueueWaitNs: p.queueWaitNs, WallNs: p.wallNs, StartNs: p.startNs,
		FetchNs: p.fetchNs, ScanNs: p.scanNs, DispatchNs: p.dispatchNs,
		Err: err,
	}
}

// RecordSpan buffers one completed execution's span.
func (r *Recorder) RecordSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Err != "" {
		r.errs[s.Exec] = s.Err
	}
	if old, evicted := r.spans.Record(pack(s)); evicted {
		delete(r.errs, old.exec)
	}
}

// RecordSummary buffers one retired traversal's coordinator summary.
func (r *Recorder) RecordSummary(s TravelSummary) {
	if r != nil {
		r.summaries.Record(s)
	}
}

// Spans returns the buffered spans for one traversal, oldest first;
// travel == 0 selects every buffered span.
func (r *Recorder) Spans(travel uint64) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	packed := r.spans.Filter(func(p packedSpan) bool { return travel == 0 || p.travel == travel })
	out := make([]Span, len(packed))
	for i, p := range packed {
		out[i] = p.span(r.errs[p.exec])
	}
	return out
}

// Summaries returns the buffered travel summaries, oldest first.
func (r *Recorder) Summaries() []TravelSummary {
	if r == nil {
		return nil
	}
	return r.summaries.Snapshot()
}

// Summary returns the summary for one traversal, if still buffered.
func (r *Recorder) Summary(travel uint64) (TravelSummary, bool) {
	if r == nil {
		return TravelSummary{}, false
	}
	match := r.summaries.Filter(func(s TravelSummary) bool { return s.Travel == travel })
	if len(match) == 0 {
		return TravelSummary{}, false
	}
	return match[len(match)-1], true
}

// Stats reports the recorder's buffering counters.
func (r *Recorder) Stats() RingStats {
	if r == nil {
		return RingStats{}
	}
	return RingStats{
		SpansRecorded: r.spans.Total(),
		SpansBuffered: r.spans.Len(),
		SpansEvicted:  r.spans.Evicted(),
		Summaries:     r.summaries.Len(),
	}
}
