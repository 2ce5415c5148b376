package main

import (
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/rpc"
	"graphtrek/internal/wire"
)

// The tracer times the layers from outside: it wraps the values the harness
// hands to core.NewServer, rpc.NewTCPWithOptions and Server.Bind, and adds
// no code to the program. Spans are folded into one histogram per
// (layer, call); a capture window keeps the full span list of one traversal.

type callID int

const (
	cStoreGetVertex callID = iota
	cStoreScanIDs
	cStoreScanEdges
	cStoreLookup
	cStoreApply
	cCachedGetVertex
	cCachedScanIDs
	cCachedScanEdges
	cCachedLookup
	cCachedApply
	cRPCSend
	cRPCTransit
	cWireEncode
	cWireDecode
	cHandleStart
	cHandleDispatch
	cHandleExecEvents
	cHandleResult
	cHandleWriteReq
	cHandleReplAppend
	cHandleReplAck
	cHandleOther
	cClientHandle
	cClientCompile
	numCalls
)

var callNames = [numCalls][2]string{
	cStoreGetVertex:   {"gstore.store", "get_vertex"},
	cStoreScanIDs:     {"gstore.store", "scan_ids"},
	cStoreScanEdges:   {"gstore.store", "scan_edges"},
	cStoreLookup:      {"gstore.store", "lookup"},
	cStoreApply:       {"gstore.store", "apply"},
	cCachedGetVertex:  {"gstore.cached", "get_vertex"},
	cCachedScanIDs:    {"gstore.cached", "scan_ids"},
	cCachedScanEdges:  {"gstore.cached", "scan_edges"},
	cCachedLookup:     {"gstore.cached", "lookup"},
	cCachedApply:      {"gstore.cached", "apply"},
	cRPCSend:          {"rpc", "send"},
	cRPCTransit:       {"rpc", "transit"},
	cWireEncode:       {"wire", "encode"},
	cWireDecode:       {"wire", "decode"},
	cHandleStart:      {"core", "handle.start"},
	cHandleDispatch:   {"core", "handle.dispatch"},
	cHandleExecEvents: {"core", "handle.exec_events"},
	cHandleResult:     {"core", "handle.result"},
	cHandleWriteReq:   {"core", "handle.write_req"},
	cHandleReplAppend: {"core", "handle.repl_append"},
	cHandleReplAck:    {"core", "handle.repl_ack"},
	cHandleOther:      {"core", "handle.other"},
	cClientHandle:     {"client", "handle"},
	cClientCompile:    {"client", "compile"},
}

var (
	storeCalls  = []callID{cStoreGetVertex, cStoreScanIDs, cStoreScanEdges, cStoreLookup, cStoreApply}
	cachedCalls = []callID{cCachedGetVertex, cCachedScanIDs, cCachedScanEdges, cCachedLookup, cCachedApply}
	handleCalls = []callID{cHandleStart, cHandleDispatch, cHandleExecEvents, cHandleResult,
		cHandleWriteReq, cHandleReplAppend, cHandleReplAck, cHandleOther}
)

// span is one timed call, as written to the trace file. Op is the client
// operation in flight when it was recorded (fanout runs one at a time), and
// Travel the traversal id where the call carries one.
type span struct {
	Layer   string `json:"layer"`
	Call    string `json:"call"`
	Node    int    `json:"node"`
	Op      int64  `json:"op"`
	Travel  uint64 `json:"travel,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

const (
	maxSpans = 1 << 18
	// pairRing holds send times awaiting their handler; TCP outboxes hold at
	// most 4096 frames, so an unmatched slot is never overwritten early.
	pairRing = 8192
)

// pair matches a Send on one node to the Handle on another by FIFO order.
// The sequence counters always run, so switching the tracer on mid-stream
// cannot shift the match.
type pair struct {
	mu   sync.Mutex
	sent uint64
	recv uint64
	seq  [pairRing]uint64
	at   [pairRing]int64
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	hist  [numCalls]metrics.Histogram
	// Counts beside the timings: edges a scan produced, bytes and entries
	// of the frames sent, vertices returned in result messages.
	edges     [numCalls]atomic.Int64
	wireBytes atomic.Int64
	entries   atomic.Int64
	results   atomic.Int64
	pairs     [(numServers + 1) * (numServers + 1)]pair

	capturing atomic.Bool
	op        atomic.Int64
	mu        sync.Mutex
	spans     []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// done records one finished call that began at start.
func (t *tracer) done(c callID, node int, travel uint64, start time.Time) {
	t.observe(c, node, travel, start, time.Since(start))
}

func (t *tracer) observe(c callID, node int, travel uint64, start time.Time, d time.Duration) {
	t.hist[c].Record(int64(d))
	if !t.capturing.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Layer: callNames[c][0], Call: callNames[c][1], Node: node,
			Op: t.op.Load(), Travel: travel,
			StartNs: int64(start.Sub(t.epoch)), DurNs: int64(d),
		})
	}
	t.mu.Unlock()
}

// snapshot copies the aggregates so a phase can be reported as a delta.
type traceSnap struct {
	hist      [numCalls]metrics.HistSnapshot
	edges     [numCalls]int64
	wireBytes int64
	entries   int64
	results   int64
}

func (t *tracer) snapshot() *traceSnap {
	s := &traceSnap{
		wireBytes: t.wireBytes.Load(),
		entries:   t.entries.Load(),
		results:   t.results.Load(),
	}
	for c := range t.hist {
		s.hist[c] = t.hist[c].Snapshot()
		s.edges[c] = t.edges[c].Load()
	}
	return s
}

func histSub(a, b metrics.HistSnapshot) metrics.HistSnapshot {
	for i := range a.Counts {
		a.Counts[i] -= b.Counts[i]
	}
	a.Count -= b.Count
	a.Sum -= b.Sum
	return a
}

func (a *traceSnap) sub(b *traceSnap) *traceSnap {
	d := &traceSnap{
		wireBytes: a.wireBytes - b.wireBytes,
		entries:   a.entries - b.entries,
		results:   a.results - b.results,
	}
	for c := range a.hist {
		d.hist[c] = histSub(a.hist[c], b.hist[c])
		d.edges[c] = a.edges[c] - b.edges[c]
	}
	return d
}

// busyNs sums the time spent in the given calls.
func (s *traceSnap) busyNs(calls ...callID) int64 {
	var n int64
	for _, c := range calls {
		n += s.hist[c].Sum
	}
	return n
}

func (s *traceSnap) count(calls ...callID) int64 {
	var n int64
	for _, c := range calls {
		n += int64(s.hist[c].Count)
	}
	return n
}

// meanUs is the mean duration of one call in microseconds.
func (s *traceSnap) meanUs(c callID) float64 {
	return ratio(float64(s.hist[c].Sum)/1e3, float64(s.hist[c].Count))
}

// --- gstore decorators -------------------------------------------------

// tracedStore sits under the read cache, around the persistent store.
// Embedding keeps PropertyIndex, Interner and the rest promoted.
type tracedStore struct {
	*gstore.Store
	tr   *tracer
	node int
}

func (s tracedStore) GetVertex(id model.VertexID) (model.Vertex, bool, error) {
	if !s.tr.on.Load() {
		return s.Store.GetVertex(id)
	}
	start := time.Now()
	v, ok, err := s.Store.GetVertex(id)
	s.tr.done(cStoreGetVertex, s.node, 0, start)
	return v, ok, err
}

func (s tracedStore) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	if !s.tr.on.Load() {
		return s.Store.ScanEdgeIDs(src, label, fn)
	}
	start := time.Now()
	err := s.Store.ScanEdgeIDs(src, label, fn)
	s.tr.done(cStoreScanIDs, s.node, 0, start)
	return err
}

func (s tracedStore) ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error {
	if !s.tr.on.Load() {
		return s.Store.ScanEdges(src, label, fn)
	}
	start := time.Now()
	err := s.Store.ScanEdges(src, label, fn)
	s.tr.done(cStoreScanEdges, s.node, 0, start)
	return err
}

func (s tracedStore) LookupVertices(key string, v property.Value) ([]model.VertexID, error) {
	if !s.tr.on.Load() {
		return s.Store.LookupVertices(key, v)
	}
	start := time.Now()
	ids, err := s.Store.LookupVertices(key, v)
	s.tr.done(cStoreLookup, s.node, 0, start)
	return ids, err
}

func (s tracedStore) LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error) {
	if !s.tr.on.Load() {
		return s.Store.LookupVerticesRange(key, lo, hi)
	}
	start := time.Now()
	ids, err := s.Store.LookupVerticesRange(key, lo, hi)
	s.tr.done(cStoreLookup, s.node, 0, start)
	return ids, err
}

func (s tracedStore) apply(fn func() error) error {
	if !s.tr.on.Load() {
		return fn()
	}
	start := time.Now()
	err := fn()
	s.tr.done(cStoreApply, s.node, 0, start)
	return err
}

func (s tracedStore) PutVertex(v model.Vertex) error {
	return s.apply(func() error { return s.Store.PutVertex(v) })
}

func (s tracedStore) PutEdge(e model.Edge) error {
	return s.apply(func() error { return s.Store.PutEdge(e) })
}

func (s tracedStore) DeleteVertex(id model.VertexID) error {
	return s.apply(func() error { return s.Store.DeleteVertex(id) })
}

func (s tracedStore) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	return s.apply(func() error { return s.Store.DeleteEdge(src, label, dst) })
}

// tracedCached sits above the read cache; it is the gstore.Graph the server
// sees. Scans collect their output first and replay it to the engine's
// callback after the span ends, so the callback's work (routing and
// buffering each destination) is charged to core, not to gstore.
type tracedCached struct {
	*gstore.CachedGraph
	tr   *tracer
	node int
}

var (
	idBufs   = sync.Pool{New: func() any { return new([]model.VertexID) }}
	edgeBufs = sync.Pool{New: func() any { return new([]model.Edge) }}
)

func (c tracedCached) GetVertex(id model.VertexID) (model.Vertex, bool, error) {
	if !c.tr.on.Load() {
		return c.CachedGraph.GetVertex(id)
	}
	start := time.Now()
	v, ok, err := c.CachedGraph.GetVertex(id)
	c.tr.done(cCachedGetVertex, c.node, 0, start)
	return v, ok, err
}

func (c tracedCached) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	if !c.tr.on.Load() {
		return c.CachedGraph.ScanEdgeIDs(src, label, fn)
	}
	buf := idBufs.Get().(*[]model.VertexID)
	ids := (*buf)[:0]
	start := time.Now()
	err := c.CachedGraph.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		ids = append(ids, dst)
		return true
	})
	c.tr.done(cCachedScanIDs, c.node, 0, start)
	c.tr.edges[cCachedScanIDs].Add(int64(len(ids)))
	for _, dst := range ids {
		if !fn(dst) {
			break
		}
	}
	*buf = ids
	idBufs.Put(buf)
	return err
}

func (c tracedCached) ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error {
	if !c.tr.on.Load() {
		return c.CachedGraph.ScanEdges(src, label, fn)
	}
	buf := edgeBufs.Get().(*[]model.Edge)
	edges := (*buf)[:0]
	start := time.Now()
	err := c.CachedGraph.ScanEdges(src, label, func(e model.Edge) bool {
		edges = append(edges, e)
		return true
	})
	c.tr.done(cCachedScanEdges, c.node, 0, start)
	c.tr.edges[cCachedScanEdges].Add(int64(len(edges)))
	for _, e := range edges {
		if !fn(e) {
			break
		}
	}
	clear(edges) // drop the property maps before pooling
	*buf = edges
	edgeBufs.Put(buf)
	return err
}

func (c tracedCached) LookupVertices(key string, v property.Value) ([]model.VertexID, error) {
	if !c.tr.on.Load() {
		return c.CachedGraph.LookupVertices(key, v)
	}
	start := time.Now()
	ids, err := c.CachedGraph.LookupVertices(key, v)
	c.tr.done(cCachedLookup, c.node, 0, start)
	return ids, err
}

func (c tracedCached) LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error) {
	if !c.tr.on.Load() {
		return c.CachedGraph.LookupVerticesRange(key, lo, hi)
	}
	start := time.Now()
	ids, err := c.CachedGraph.LookupVerticesRange(key, lo, hi)
	c.tr.done(cCachedLookup, c.node, 0, start)
	return ids, err
}

func (c tracedCached) apply(fn func() error) error {
	if !c.tr.on.Load() {
		return fn()
	}
	start := time.Now()
	err := fn()
	c.tr.done(cCachedApply, c.node, 0, start)
	return err
}

func (c tracedCached) PutVertex(v model.Vertex) error {
	return c.apply(func() error { return c.CachedGraph.PutVertex(v) })
}

func (c tracedCached) PutEdge(e model.Edge) error {
	return c.apply(func() error { return c.CachedGraph.PutEdge(e) })
}

func (c tracedCached) DeleteVertex(id model.VertexID) error {
	return c.apply(func() error { return c.CachedGraph.DeleteVertex(id) })
}

func (c tracedCached) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	return c.apply(func() error { return c.CachedGraph.DeleteEdge(src, label, dst) })
}

// --- rpc and core decorators -------------------------------------------

// tracedTransport times Send and, beside it, encodes and decodes the same
// message into a scratch buffer to time the codec and count bytes: the
// transport does both inside its own goroutines, where no decorator reaches.
type tracedTransport struct {
	rpc.Transport
	tr *tracer
}

var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

func (t *tracedTransport) Send(to int, msg wire.Message) error {
	tr := t.tr
	self := t.Self()
	p := &tr.pairs[self*(numServers+1)+to]
	on := tr.on.Load()
	p.mu.Lock()
	p.sent++
	if on {
		p.seq[p.sent%pairRing] = p.sent
		p.at[p.sent%pairRing] = int64(time.Since(tr.epoch))
	}
	p.mu.Unlock()
	if !on {
		return t.Transport.Send(to, msg)
	}
	start := time.Now()
	err := t.Transport.Send(to, msg)
	tr.done(cRPCSend, self, msg.TravelID, start)

	buf := frameBufs.Get().(*[]byte)
	start = time.Now()
	frame := wire.Append((*buf)[:0], &msg)
	tr.done(cWireEncode, self, msg.TravelID, start)
	start = time.Now()
	_, derr := wire.Decode(frame)
	tr.done(cWireDecode, self, msg.TravelID, start)
	if err == nil {
		err = derr
	}
	tr.wireBytes.Add(int64(len(frame)))
	tr.entries.Add(int64(len(msg.Entries) + len(msg.Verts) + len(msg.Created) + len(msg.Ended)))
	if msg.Kind == wire.KindResult {
		tr.results.Add(int64(len(msg.Verts)))
	}
	*buf = frame
	frameBufs.Put(buf)
	return err
}

func handleCall(k wire.Kind) callID {
	switch k {
	case wire.KindStartTravel:
		return cHandleStart
	case wire.KindDispatch:
		return cHandleDispatch
	case wire.KindExecEvents:
		return cHandleExecEvents
	case wire.KindResult:
		return cHandleResult
	case wire.KindWriteReq:
		return cHandleWriteReq
	case wire.KindReplAppend:
		return cHandleReplAppend
	case wire.KindReplAck:
		return cHandleReplAck
	}
	return cHandleOther
}

// handler wraps a node's inbound handler: it closes the send→handle transit
// span and times the handler itself. call < 0 picks the call from the
// message kind (servers); the client passes cClientHandle.
func (tr *tracer) handler(node int, call callID, h rpc.Handler) rpc.Handler {
	return func(from int, msg wire.Message) {
		p := &tr.pairs[from*(numServers+1)+node]
		on := tr.on.Load()
		var sentAt int64 = -1
		p.mu.Lock()
		p.recv++
		if on && p.seq[p.recv%pairRing] == p.recv {
			sentAt = p.at[p.recv%pairRing]
		}
		p.mu.Unlock()
		if !on {
			h(from, msg)
			return
		}
		start := time.Now()
		if sentAt >= 0 {
			tr.observe(cRPCTransit, node, msg.TravelID, tr.epoch.Add(time.Duration(sentAt)),
				start.Sub(tr.epoch)-time.Duration(sentAt))
		}
		c := call
		if c < 0 {
			c = handleCall(msg.Kind)
		}
		h(from, msg)
		tr.done(c, node, msg.TravelID, start)
	}
}
