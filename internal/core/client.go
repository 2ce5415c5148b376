package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/query"
	"graphtrek/internal/route"
	"graphtrek/internal/wire"
)

// Client submits GTravel traversals to the cluster. For the server-side
// modes it ships the whole plan to one backend (the coordinator) and waits
// for the results; for ModeClientSide it plays the central controller of
// Fig 2a itself, pulling every intermediate frontier back over the
// client-server link. A Client occupies one node id on the transport
// (>= Part.N(), i.e. outside the backend range).
type Client struct {
	tr   transport
	part partition.Partitioner
	// route is part's concrete *route.View when the cluster runs with
	// replication: it lets the client address partitions for writes and
	// merge gossiped/piggybacked table updates. Nil on replication-free
	// clusters.
	route *route.View
	seq   atomic.Uint64
	rtt   time.Duration

	// calls carries every request/reply exchange the client makes (writes,
	// name lookups, visits, progress and introspection pulls).
	calls callTable

	mu      sync.Mutex
	pending map[uint64]*pendingTravel
}

type pendingTravel struct {
	results []model.VertexID
	done    chan struct{}
	err     error
}

// NewClient creates a client; Bind must be called with its transport.
func NewClient(part partition.Partitioner) *Client {
	c := &Client{
		part:    part,
		pending: make(map[uint64]*pendingTravel),
	}
	if v, ok := part.(*route.View); ok {
		c.route = v
	}
	// Travel ids embed this client's node slot and a sequence number. The
	// sequence is seeded from the clock so a restarted client process never
	// reuses an id a previous incarnation already completed — the servers
	// remember recently finished traversals and drop late messages for
	// them, which would silently swallow a replayed id's StartTravel.
	c.seq.Store(uint64(time.Now().UnixNano()) & (1<<47 - 1))
	return c
}

// Bind attaches the transport; call before submitting.
func (c *Client) Bind(tr transport) {
	c.tr = tr
	c.calls.send = tr.Send
}

// SetRTT models the client-server network round-trip cost in simulated
// deployments. Server-side traversal pays it twice per traversal (submit
// and results); the client-side mode pays it on every per-step visit
// request — the asymmetry of Fig 2 that makes client-side traversal slow
// on a real, busy client-server network.
func (c *Client) SetRTT(d time.Duration) { c.rtt = d }

// Handle is the client's transport handler.
func (c *Client) Handle(_ int, msg wire.Message) {
	switch msg.Kind {
	case wire.KindResult:
		c.mu.Lock()
		if p, ok := c.pending[msg.TravelID]; ok {
			p.results = append(p.results, msg.Verts...)
		}
		c.mu.Unlock()
	case wire.KindTravelDone:
		c.mu.Lock()
		p, ok := c.pending[msg.TravelID]
		if ok {
			delete(c.pending, msg.TravelID)
		}
		c.mu.Unlock()
		if ok {
			if msg.Err != "" {
				p.err = errors.New(msg.Err)
			}
			close(p.done)
		}
	case wire.KindVisitResp, wire.KindProgressResp, wire.KindWriteResp, wire.KindIntrospectResp:
		// A rejected write piggybacks the server's route table so the retry
		// is already re-routed when the caller sees the error. (A successful
		// write response's Blob is payload — an intern request's id list —
		// never a table.)
		if msg.Kind == wire.KindWriteResp && msg.Err != "" && len(msg.Blob) > 0 {
			c.mergeRoute(msg.Blob)
		}
		c.calls.resolve(msg)
	case wire.KindRouteUpdate:
		c.mergeRoute(msg.Blob)
	}
}

// mergeRoute folds an encoded route table into the client's view; clients
// without a view (replication off) ignore route traffic.
func (c *Client) mergeRoute(blob []byte) {
	if c.route == nil {
		return
	}
	if tbl, err := route.DecodeTable(blob); err == nil {
		c.route.Update(tbl)
	}
}

// WriteOptions tunes a replicated write.
type WriteOptions struct {
	// Timeout bounds the whole Write call (default 30s).
	Timeout time.Duration
	// Retries re-sends a failed per-partition batch up to this many
	// additional times when the error is Retryable — e.g. a write fenced
	// mid-failover retries against the newly promoted primary after the
	// piggybacked route table is merged. Default (zero) retries 3 times;
	// negative disables retries.
	Retries int
}

// budget applies the WriteOptions defaults and returns the absolute
// deadline of the whole call plus the retry count.
func (o WriteOptions) budget() (time.Time, int) {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	return time.Now().Add(o.Timeout), o.Retries
}

// Write applies graph mutations durably through the replication protocol:
// each mutation is routed to its partition's primary, which acknowledges
// only once a quorum of the replica set holds it. Mutations for the same
// partition ship as one batch (one quorum round). Requires a cluster built
// with replication (a *route.View partitioner).
func (c *Client) Write(muts []gstore.Mutation, opts WriteOptions) error {
	if c.route == nil {
		return errors.New("core: replication is not enabled on this cluster")
	}
	if len(muts) == 0 {
		return nil
	}
	deadline, retries := opts.budget()
	byPart := make(map[int][]gstore.Mutation)
	for _, m := range muts {
		p := c.route.Partition(m.RoutingID())
		byPart[p] = append(byPart[p], m)
	}
	for p, batch := range byPart {
		if _, err := c.partCall(p, wire.WriteModeMutate, gstore.EncodeBatch(batch), deadline, retries); err != nil {
			return err
		}
	}
	return nil
}

// partCall runs one KindWriteReq exchange (a mutation batch, or a name
// service request, per mode) for partition p and returns the reply payload.
// It owns the write path's delivery policy: each attempt goes to the
// partition's primary as the route view names it at that moment (without a
// view, partition == server), and a Retryable failure — e.g. a write fenced
// mid-failover, whose rejection piggybacked the new route table — is retried
// up to `retries` more times inside the overall deadline.
func (c *Client) partCall(p int, mode uint8, blob []byte, deadline time.Time, retries int) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		// Split the remaining budget across the attempts left, so one
		// silent drop (e.g. a primary that died before gossip reached us)
		// cannot consume the whole deadline and starve the re-routed
		// retries.
		attemptDeadline := deadline
		if left := retries - attempt; left > 0 {
			if slice := time.Until(deadline) / time.Duration(left+1); slice > 0 {
				attemptDeadline = time.Now().Add(slice)
			}
		}
		primary := p
		if c.route != nil {
			primary = int(c.route.Assignment(p).Primary)
		}
		resp, err := c.calls.do(primary, wire.Message{
			Kind: wire.KindWriteReq, Part: int32(p), Mode: mode, Blob: blob,
		}, attemptDeadline)
		if err == nil {
			return resp.Blob, nil
		}
		if attempt >= retries || !Retryable(err) {
			return nil, err
		}
	}
}

// scatter is the name service's grouping: keys are grouped by the partition
// part assigns them, each group makes one partCall in the given mode, and
// the decoded answers land at their keys' original positions.
func scatter[K, V any](c *Client, keys []K, part func(K) model.VertexID, mode uint8,
	enc func([]K) []byte, dec func([]byte) ([]V, error), opts WriteOptions) ([]V, error) {
	if c.route == nil && mode == wire.WriteModeIntern {
		return nil, errors.New("core: replication is not enabled on this cluster")
	}
	if len(keys) == 0 {
		return nil, nil
	}
	deadline, retries := opts.budget()
	type group struct {
		idx  []int
		keys []K
	}
	byPart := make(map[int]*group)
	for i, k := range keys {
		id := part(k)
		p := c.part.Owner(id)
		if c.route != nil {
			p = c.route.Partition(id)
		}
		g := byPart[p]
		if g == nil {
			g = &group{}
			byPart[p] = g
		}
		g.idx = append(g.idx, i)
		g.keys = append(g.keys, k)
	}
	out := make([]V, len(keys))
	for p, g := range byPart {
		blob, err := c.partCall(p, mode, enc(g.keys), deadline, retries)
		if err != nil {
			return nil, err
		}
		vals, err := dec(blob)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(g.keys) {
			return nil, fmt.Errorf("core: partition %d returned %d answers for %d keys", p, len(vals), len(g.keys))
		}
		for j, v := range vals {
			out[g.idx[j]] = v
		}
	}
	return out, nil
}

// nameHash places a name on the partition its hash routes to.
func nameHash(name string) model.VertexID { return model.VertexID(model.HashName(name)) }

// Intern allocates (or looks up) dense interned ids for external vertex
// names through the replication protocol: each name goes to the primary of
// the partition its hash routes to, which allocates from that partition's
// counter and acknowledges once a quorum of replicas holds the allocation.
// The returned ids are positionally aligned with names. Interning is
// idempotent — re-interning a name returns its existing id. Same
// retry/re-route policy as Write; needs a replicated cluster (the server
// enforces it).
func (c *Client) Intern(names []string, opts WriteOptions) ([]model.VertexID, error) {
	return scatter(c, names, nameHash, wire.WriteModeIntern, wire.EncodeNames, wire.DecodeIDs, opts)
}

// ResolveNames is the read-only counterpart of Intern: each name resolves
// to its interned id on the partition primary, or 0 when the name was never
// interned (0 is never a valid interned id). It also works against
// unreplicated clusters, where partition == server.
func (c *Client) ResolveNames(names []string, opts WriteOptions) ([]model.VertexID, error) {
	return scatter(c, names, nameHash, wire.WriteModeResolve, wire.EncodeNames, wire.DecodeIDs, opts)
}

// NamesOf materializes interned ids back to their external names — the
// client-boundary direction for presenting traversal results. Ids that were
// never interned come back as "". Each id is looked up on its owning
// server (interned ids embed their partition, so no dictionary round-trip
// is needed to route the lookup itself).
func (c *Client) NamesOf(ids []model.VertexID, opts WriteOptions) ([]string, error) {
	self := func(id model.VertexID) model.VertexID { return id }
	return scatter(c, ids, self, wire.WriteModeNames, wire.EncodeIDs, wire.DecodeNames, opts)
}

// SubmitOptions tunes one traversal submission.
type SubmitOptions struct {
	// Mode selects the engine; default ModeGraphTrek.
	Mode Mode
	// Coordinator picks the backend that coordinates the traversal;
	// negative selects the owner of the first source id, or, for a
	// scan-seeded plan, a backend by hashing the traversal id (the paper's
	// "selected backend server").
	Coordinator int
	// Timeout bounds the client-side wait (default 120s).
	Timeout time.Duration
	// Retries restarts a failed traversal from scratch up to this many
	// additional times — the recovery policy of §IV-C ("this failure will
	// simply cause the traversal to be restarted"). Each retry gets a
	// fresh traversal id and, when Coordinator is negative and the plan is
	// scan-seeded, a different coordinator, so a dead coordinator is routed
	// around.
	Retries int
}

// Submit runs a traversal and returns the vertices its rtn()-marked steps
// (or, without rtn(), its final step) produced, sorted and deduplicated.
func (c *Client) Submit(t *query.Travel, opts SubmitOptions) ([]model.VertexID, error) {
	plan, err := t.Compile()
	if err != nil {
		return nil, err
	}
	return c.SubmitPlan(plan, opts)
}

// SubmitPlan runs an already compiled traversal plan, restarting it on
// failure per SubmitOptions.Retries.
func (c *Client) SubmitPlan(plan *query.Plan, opts SubmitOptions) ([]model.VertexID, error) {
	if opts.Retries < 0 {
		// A negative count must not skip the loop entirely and report an
		// empty result as success.
		opts.Retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		res, err := c.submitOnce(plan, opts)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !Retryable(err) {
			break // a malformed plan or cancellation never heals with retries
		}
	}
	return nil, lastErr
}

// submitOnce runs a single traversal attempt.
func (c *Client) submitOnce(plan *query.Plan, opts SubmitOptions) ([]model.VertexID, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
	}
	if opts.Mode.tuning().clientDriven {
		if c.tr == nil {
			return nil, errors.New("core: client not bound to a transport")
		}
		travelID := uint64(c.tr.Self()+1)<<48 | c.seq.Add(1)
		return c.runClientSide(plan, travelID, opts)
	}
	h, err := c.SubmitPlanAsync(plan, opts)
	if err != nil {
		return nil, err
	}
	return h.Wait(opts.Timeout)
}

// Handle tracks an in-flight server-side traversal submitted with
// SubmitPlanAsync: the caller can poll Progress while the cluster works and
// collect the results with Wait.
type Handle struct {
	client   *Client
	travelID uint64
	coord    int
	p        *pendingTravel
}

// SubmitPlanAsync starts a server-side traversal and returns immediately.
// ModeClientSide is inherently synchronous at the client and is rejected.
func (c *Client) SubmitPlanAsync(plan *query.Plan, opts SubmitOptions) (*Handle, error) {
	if c.tr == nil {
		return nil, errors.New("core: client not bound to a transport")
	}
	if opts.Mode.tuning().clientDriven {
		return nil, errors.New("core: client-side traversal cannot run asynchronously")
	}
	travelID := uint64(c.tr.Self()+1)<<48 | c.seq.Add(1)
	coord := opts.Coordinator
	if coord < 0 || coord >= c.part.N() {
		coord = int(travelID % uint64(c.part.N()))
		if ids := plan.Steps[0].SourceIDs; len(ids) > 0 {
			coord = c.part.Owner(ids[0]) // the traversal starts where its seed lies
		}
	}
	p := &pendingTravel{done: make(chan struct{})}
	c.mu.Lock()
	c.pending[travelID] = p
	c.mu.Unlock()

	err := c.tr.Send(coord, wire.Message{
		Kind: wire.KindStartTravel, TravelID: travelID,
		Mode: uint8(opts.Mode), Coord: int32(c.tr.Self()), Plan: plan.Encode(),
	})
	if err != nil {
		c.mu.Lock()
		delete(c.pending, travelID)
		c.mu.Unlock()
		return nil, err
	}
	return &Handle{client: c, travelID: travelID, coord: coord, p: p}, nil
}

// TravelID returns the traversal's cluster-wide id.
func (h *Handle) TravelID() uint64 { return h.travelID }

// Coordinator returns the backend server coordinating the traversal.
func (h *Handle) Coordinator() int { return h.coord }

// Wait blocks until the traversal completes and returns its results.
func (h *Handle) Wait(timeout time.Duration) ([]model.VertexID, error) {
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	// A stopped timer is released at once; time.After would strand one per
	// completed traversal until the timeout fires.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-h.p.done:
	case <-timer.C:
		h.client.mu.Lock()
		delete(h.client.pending, h.travelID)
		h.client.mu.Unlock()
		return nil, fmt.Errorf("core: traversal %d timed out after %v at the client", h.travelID, timeout)
	}
	if h.p.err != nil {
		return nil, h.p.err
	}
	return sortedUnique(h.p.results), nil
}

// Cancel asks the coordinator to abort the traversal. Wait subsequently
// returns a cancellation error. Cancelling a finished traversal is a
// harmless no-op.
func (h *Handle) Cancel() error {
	return h.client.tr.Send(h.coord, wire.Message{
		Kind: wire.KindCancel, TravelID: h.travelID,
	})
}

// Progress queries the coordinator's ledger for the number of live
// executions per step (§IV-C): the user-facing remaining-work estimate.
// A finished traversal reports an empty map.
func (h *Handle) Progress(timeout time.Duration) (map[int32]int, error) {
	resp, err := h.client.calls.do(h.coord, wire.Message{
		Kind: wire.KindProgressReq, TravelID: h.travelID,
	}, pullDeadline(timeout))
	if err != nil && resp.Err == "" {
		return nil, err // the query itself failed: send error or timeout
	}
	// A coordinator answering with Err (finished or unknown traversal) sends
	// no rows: that is empty progress, not an error — completion races with
	// the query by design.
	out := make(map[int32]int, len(resp.Created))
	for _, ref := range resp.Created {
		out[ref.Step] = int(ref.ID)
	}
	return out, nil
}

func sortedUnique(ids []model.VertexID) []model.VertexID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// runClientSide drives the traversal step by step from the client: every
// frontier is shipped back, aggregated, deduplicated, and redistributed —
// the client-side traversal of Fig 2a.
func (c *Client) runClientSide(plan *query.Plan, travelID uint64, opts SubmitOptions) ([]model.VertexID, error) {
	deadline := time.Now().Add(opts.Timeout)
	// Register the plan on every backend.
	for srv := 0; srv < c.part.N(); srv++ {
		err := c.tr.Send(srv, wire.Message{
			Kind: wire.KindStartTravel, TravelID: travelID,
			Mode: uint8(ModeClientSide), Coord: int32(c.tr.Self()), Plan: plan.Encode(),
		})
		if err != nil {
			return nil, err
		}
	}
	defer func() {
		for srv := 0; srv < c.part.N(); srv++ {
			c.tr.Send(srv, wire.Message{Kind: wire.KindTravelDone, TravelID: travelID})
		}
	}()

	type hop struct{ from, to model.VertexID }
	numSteps := plan.NumSteps()
	survivors := make([]map[model.VertexID]bool, numSteps)
	hops := make([][]hop, numSteps)

	// Step 0 candidates: explicit ids, or a per-server scan request.
	candidates := map[model.VertexID]bool{}
	if len(plan.Steps[0].SourceIDs) > 0 {
		for _, id := range plan.Steps[0].SourceIDs {
			candidates[id] = true
		}
	} else {
		for srv := 0; srv < c.part.N(); srv++ {
			resp, err := c.visit(srv, travelID, 0, 0, nil, true, deadline)
			if err != nil {
				return nil, err
			}
			for _, v := range resp.Verts {
				candidates[v] = true
			}
		}
	}

	// Client-mode spans chain at step granularity: each step's requests
	// carry the previous step's first request id as ParentExec (scan and
	// step-0 requests are roots). Coarser than the per-execution lineage of
	// the server-side engines — the client aggregates frontiers, erasing
	// which request produced which candidate — but enough to assemble the
	// per-step timeline into one rooted DAG.
	var stepParent uint64
	for step := 0; step < numSteps; step++ {
		byOwner := make(map[int][]model.VertexID)
		for v := range candidates {
			byOwner[c.part.Owner(v)] = append(byOwner[c.part.Owner(v)], v)
		}
		survivors[step] = make(map[model.VertexID]bool)
		next := map[model.VertexID]bool{}
		var firstReq uint64
		for owner, entries := range byOwner {
			resp, err := c.visit(owner, travelID, int32(step), stepParent, entries, false, deadline)
			if err != nil {
				return nil, err
			}
			if firstReq == 0 {
				firstReq = resp.ReqID
			}
			for _, v := range resp.Verts {
				survivors[step][v] = true
			}
			expanded := resp.Batch()
			for i, v := range expanded.IDs {
				// Expansion: the tag's Anc is the surviving source, v the
				// next-step candidate.
				hops[step+1] = append(hops[step+1], hop{from: expanded.TagAt(i).Anc, to: v})
				next[v] = true
			}
		}
		stepParent = firstReq
		candidates = next
	}

	// Backward liveness, as in the reference evaluator.
	alive := make([]map[model.VertexID]bool, numSteps)
	alive[numSteps-1] = survivors[numSteps-1]
	for i := numSteps - 1; i > 0; i-- {
		alive[i-1] = make(map[model.VertexID]bool)
		for _, h := range hops[i] {
			if alive[i][h.to] && survivors[i-1][h.from] {
				alive[i-1][h.from] = true
			}
		}
	}
	var out []model.VertexID
	seen := map[model.VertexID]bool{}
	for i := 0; i < numSteps; i++ {
		if !plan.Returned(i) {
			continue
		}
		for v := range alive[i] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return sortedUnique(out), nil
}

// visit performs one synchronous VisitReq round trip. parent is the
// ParentExec stamped on the request (zero for roots).
func (c *Client) visit(srv int, travelID uint64, step int32, parent uint64, entries []model.VertexID, scan bool, deadline time.Time) (wire.Message, error) {
	msg := wire.Message{
		Kind: wire.KindVisitReq, TravelID: travelID,
		Step: step, ParentExec: parent, Entries: entries,
	}
	if scan {
		msg.Mode = 1 // scan request marker
	}
	if c.rtt > 0 {
		time.Sleep(c.rtt)
	}
	return c.calls.do(srv, msg, deadline)
}
