package trace

import "sort"

// This file reconstructs a traversal's causal execution DAG from the spans
// its servers buffered. Every span carries the ledger id of the execution
// that created it (Span.Parent), so joining spans on exec id rebuilds the
// traverser lineage the asynchronous dispatch model makes invisible at run
// time: which hop chain produced each execution, and which chain the
// traversal's end-to-end latency actually waited on. The assembly doubles
// as an end-to-end cross-check of the §IV-C quiescence ledger — for a
// cleanly traced traversal every Created execution appears exactly once —
// and any deviation is reported precisely (orphaned parents, duplicate
// exec ids) instead of silently absorbed.

// SpanDump is one server's answer to a span pull (KindIntrospectReq,
// wire.IntrospectSpans), built by Recorder.Dump: the spans it buffered for
// the traversal plus, when this server coordinated it, the ledger summary
// (for travel 0, every buffered span and summary). Dropped counts the spans
// its ring evicted since start, so an assembler can tell a wrapped ring from
// a tracing bug when spans are missing.
type SpanDump struct {
	Server    int32           `json:"server"`
	Spans     []Span          `json:"spans"`
	Summaries []TravelSummary `json:"summaries,omitempty"`
	Dropped   uint64          `json:"dropped,omitempty"`
}

// AssembleDumps joins per-server span dumps into the traversal's causal DAG,
// its SpansDropped the dumps' evictions summed. summary is the
// coordinator's ledger record when the caller already holds it; otherwise
// the latest one a dump carries is used.
func AssembleDumps(travel uint64, dumps []SpanDump, summary *TravelSummary) *DAG {
	var spans []Span
	var dropped uint64
	for _, d := range dumps {
		spans = append(spans, d.Spans...)
		dropped += d.Dropped
		if n := len(d.Summaries); summary == nil && n > 0 {
			summary = &d.Summaries[n-1]
		}
	}
	dag := Assemble(travel, spans, summary)
	dag.SpansDropped = dropped
	return dag
}

// DAGNode is one execution in the assembled DAG: its span plus the exec
// ids it dispatched (children sorted ascending for determinism).
type DAGNode struct {
	Span
	Children []uint64 `json:"children,omitempty"`
}

// Hop attributes one edge of a chain: the time the child execution spent
// queued, computing, and the network/batching gap between its parent's
// termination and its own start.
type Hop struct {
	Exec   uint64 `json:"exec"`
	Server int32  `json:"server"`
	Step   int32  `json:"step"`
	// QueueNs is the child's worst executor-queue wait.
	QueueNs int64 `json:"queue_ns"`
	// ComputeNs is the child's wall time net of queue wait.
	ComputeNs int64 `json:"compute_ns"`
	// GapNs is parent end → child start: wire latency plus outbox batching
	// delay. Clamped at zero — a child can legitimately start before its
	// parent terminates when the batch-size threshold flushed early.
	GapNs int64 `json:"gap_ns"`
}

// Chain is one root→leaf path through the DAG with per-hop attribution.
type Chain struct {
	Root uint64 `json:"root"`
	Leaf uint64 `json:"leaf"`
	// DurationNs is root start → leaf end on the shared timeline.
	DurationNs int64 `json:"duration_ns"`
	Hops       []Hop `json:"hops"`
}

// DAG is the assembled causal graph of one traversal.
type DAG struct {
	Travel uint64 `json:"travel"`
	// Summary is the coordinator's ledger record, when available.
	Summary *TravelSummary `json:"summary,omitempty"`
	// Nodes holds every distinct execution, sorted by StartNs then exec id.
	Nodes []DAGNode `json:"nodes"`
	// Roots lists exec ids with Parent == 0 or an unknown parent.
	Roots []uint64 `json:"roots,omitempty"`
	// Orphans lists exec ids whose nonzero Parent has no span — either a
	// ring eviction (see SpansDropped) or a causality bug.
	Orphans []uint64 `json:"orphans,omitempty"`
	// Duplicates lists exec ids that appeared in more than one span —
	// possible under chaos transports that duplicate dispatches.
	Duplicates []uint64 `json:"duplicates,omitempty"`
	// SpansDropped sums ring evictions across the contributing servers:
	// nonzero means orphans may be wrapped-ring artifacts, not bugs.
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
	// CriticalPath is the chain maximizing root start → leaf end.
	CriticalPath *Chain `json:"critical_path,omitempty"`
}

// Assemble joins spans (typically gathered from every server) into the
// traversal's causal DAG, verifies it against the ledger summary when one
// is supplied, and computes the critical path. Spans from other traversals
// are ignored; duplicate exec ids keep the first span seen and are
// reported.
func Assemble(travel uint64, spans []Span, summary *TravelSummary) *DAG {
	d := &DAG{Travel: travel, Summary: summary}
	byExec := make(map[uint64]*DAGNode, len(spans))
	order := make([]uint64, 0, len(spans))
	dupSeen := make(map[uint64]bool)
	for _, sp := range spans {
		if travel != 0 && sp.Travel != travel {
			continue
		}
		if _, ok := byExec[sp.Exec]; ok {
			if !dupSeen[sp.Exec] {
				dupSeen[sp.Exec] = true
				d.Duplicates = append(d.Duplicates, sp.Exec)
			}
			continue
		}
		byExec[sp.Exec] = &DAGNode{Span: sp}
		order = append(order, sp.Exec)
	}
	for _, id := range order {
		n := byExec[id]
		if n.Parent == 0 {
			d.Roots = append(d.Roots, id)
			continue
		}
		p, ok := byExec[n.Parent]
		if !ok {
			// The parent terminated but its span is gone (ring wrap) or was
			// never recorded (bug). The node still anchors a subtree.
			d.Orphans = append(d.Orphans, id)
			d.Roots = append(d.Roots, id)
			continue
		}
		p.Children = append(p.Children, id)
	}
	for _, n := range byExec {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i] < n.Children[j] })
	}
	d.Nodes = make([]DAGNode, 0, len(order))
	for _, id := range order {
		d.Nodes = append(d.Nodes, *byExec[id])
	}
	sort.Slice(d.Nodes, func(i, j int) bool {
		if d.Nodes[i].StartNs != d.Nodes[j].StartNs {
			return d.Nodes[i].StartNs < d.Nodes[j].StartNs
		}
		return d.Nodes[i].Exec < d.Nodes[j].Exec
	})
	sortIDs(d.Roots)
	sortIDs(d.Orphans)
	sortIDs(d.Duplicates)
	d.CriticalPath = d.criticalPath(byExec)
	return d
}

func sortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Complete reports whether the DAG passed the ledger cross-check: a
// summary is present, every Created execution contributed exactly one
// node, and no parent link dangled. This is the end-to-end verification
// of the §IV-C quiescence accounting — the ledger's Created set and the
// cluster's recorded spans describe the same execution population.
func (d *DAG) Complete() bool {
	return d.Summary != nil && len(d.Nodes) == d.Summary.Created &&
		len(d.Orphans) == 0 && len(d.Duplicates) == 0
}

// criticalPath finds the chain with the largest root-start→node-end
// duration over every node, then walks it leaf→root to attribute hops.
// Any node may be the slowest endpoint — not only childless ones, since a
// parent can outlive all its children's subtrees.
func (d *DAG) criticalPath(byExec map[uint64]*DAGNode) *Chain {
	if len(d.Nodes) == 0 {
		return nil
	}
	var bestLeaf uint64
	var bestDur int64 = -1
	for _, n := range d.Nodes {
		dur := n.EndNs() - chainRootStart(byExec, n.Exec)
		if dur > bestDur || (dur == bestDur && n.Exec < bestLeaf) {
			bestDur, bestLeaf = dur, n.Exec
		}
	}
	ch := buildChain(byExec, bestLeaf, bestDur)
	return &ch
}

// buildChain walks leaf → root collecting hop attribution, then reverses
// into dispatch order. An orphaned link roots the chain at the oldest
// known ancestor.
func buildChain(byExec map[uint64]*DAGNode, leaf uint64, dur int64) Chain {
	ch := Chain{Leaf: leaf, DurationNs: dur}
	for id := leaf; ; {
		n := byExec[id]
		ch.Root = id
		ch.Hops = append(ch.Hops, Hop{
			Exec: n.Exec, Server: n.Server, Step: n.Step,
			QueueNs:   n.QueueWaitNs,
			ComputeNs: max(0, n.WallNs-n.QueueWaitNs),
			GapNs:     hopGap(byExec, n),
		})
		p, ok := byExec[n.Parent]
		if n.Parent == 0 || !ok {
			break
		}
		id = p.Exec
	}
	for i, j := 0, len(ch.Hops)-1; i < j; i, j = i+1, j-1 {
		ch.Hops[i], ch.Hops[j] = ch.Hops[j], ch.Hops[i]
	}
	return ch
}

// chainRootStart resolves the start time of the oldest known ancestor of
// an execution — the chain's origin on the timeline.
func chainRootStart(byExec map[uint64]*DAGNode, id uint64) int64 {
	for {
		n := byExec[id]
		if n.Parent == 0 {
			return n.StartNs
		}
		p, ok := byExec[n.Parent]
		if !ok {
			return n.StartNs
		}
		id = p.Exec
	}
}

func hopGap(byExec map[uint64]*DAGNode, n *DAGNode) int64 {
	if n.Parent == 0 {
		return 0
	}
	p, ok := byExec[n.Parent]
	if !ok {
		return 0
	}
	return max(0, n.StartNs-p.EndNs())
}

// TopChains ranks every node's chain by duration, descending, and returns
// the k slowest with distinct leaves — the "which hop chains made this
// traversal slow" report behind gtq -critical-path. k <= 0 returns all.
func (d *DAG) TopChains(k int) []Chain {
	byExec := make(map[uint64]*DAGNode, len(d.Nodes))
	for i := range d.Nodes {
		byExec[d.Nodes[i].Exec] = &d.Nodes[i]
	}
	type cand struct {
		leaf uint64
		dur  int64
	}
	cands := make([]cand, 0, len(d.Nodes))
	for _, n := range d.Nodes {
		cands = append(cands, cand{n.Exec, n.EndNs() - chainRootStart(byExec, n.Exec)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dur != cands[j].dur {
			return cands[i].dur > cands[j].dur
		}
		return cands[i].leaf < cands[j].leaf
	})
	if k > 0 && k < len(cands) {
		cands = cands[:k]
	}
	out := make([]Chain, 0, len(cands))
	for _, c := range cands {
		out = append(out, buildChain(byExec, c.leaf, c.dur))
	}
	return out
}
