// Package wire defines the messages the GraphTrek traversal engines
// exchange between backend servers, and a compact length-framed binary
// codec for sending them over byte-stream transports. The in-process
// transport passes Message values directly; the TCP transport uses the
// codec. This is the role ZeroMQ messages played in the paper (§VI).
package wire

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

// Kind discriminates message payloads.
type Kind uint8

const (
	// KindStartTravel submits a traversal from the client to its
	// coordinator, which broadcasts it to every backend server only when it
	// is scan-seeded or gated (Sync-GT): it registers the plan and engine
	// mode. A server may also learn of a traversal first from a KindDispatch
	// or KindReturnSig carrying Plan, Coord and Mode, broadcast or not.
	KindStartTravel Kind = iota + 1
	// KindDispatch carries a frontier batch to the server owning its
	// vertices, creating one traversal execution there. It carries the
	// traversal's Plan, Coord and Mode until the sender's transport accepted
	// one that did, or a StartTravel, for that server (DESIGN §8).
	KindDispatch
	// KindReturnSig notifies an rtn()-holding server that descendant paths
	// of the listed ancestor vertices reached the end of the chain (§IV-D).
	KindReturnSig
	// KindResult delivers a finished traversal's returned vertices from the
	// coordinator to the client.
	KindResult
	// KindExecEvents reports execution creation/termination, and the
	// returned vertices of the same flush (Verts), to the coordinator's
	// status-tracing ledger (§IV-C).
	KindExecEvents
	// KindStepGo is the synchronous engine's barrier release: the
	// controller permits processing of the given step.
	KindStepGo
	// KindTravelDone tells backend servers a traversal has completed so
	// they may release per-traversal state (plans, caches, rtn tables): the
	// servers a registered execution named after a clean finish, every
	// server after a failure or a broadcast start. To the client it ends the
	// result stream, with Err on failure.
	KindTravelDone
	// KindVisitReq is the client-side traversal mode's unit RPC: process
	// these vertices for one step and reply, rather than forwarding.
	KindVisitReq
	// KindVisitResp answers a KindVisitReq.
	KindVisitResp
	// KindProgressReq asks a coordinator for a traversal's live execution
	// counts per step (§IV-C progress estimation).
	KindProgressReq
	// KindProgressResp answers a KindProgressReq; Created carries one
	// ExecRef per step with ID = live execution count.
	KindProgressResp
	// KindCancel asks a coordinator to abort a traversal: the ledger is
	// failed with a cancellation error and every backend releases its
	// per-traversal state.
	KindCancel
	// KindHeartbeat is the liveness beacon backends exchange every
	// heartbeat interval. Any message from a peer refreshes its liveness;
	// heartbeats guarantee a floor on that signal even on idle clusters.
	KindHeartbeat
	// KindPeerDown announces that the sender's failure detector suspects
	// the backend in Peer of having crashed (missed heartbeats). Receivers
	// adopt the suspicion immediately, so one detection propagates
	// cluster-wide within a message delay instead of a detection period.
	KindPeerDown
	// KindIntrospectReq is the one introspection pull: Mode names the
	// document wanted (IntrospectSpans / IntrospectEvents /
	// IntrospectStatus) and TravelID scopes a span pull to one traversal
	// (0 means all buffered spans).
	KindIntrospectReq
	// KindIntrospectResp answers a KindIntrospectReq (ReqID matches, Mode
	// echoed): Blob carries the JSON-encoded document, or Err says why
	// there is none — including an unknown Mode.
	KindIntrospectResp
	// KindWriteReq asks a partition's primary to apply the mutation batch
	// in Blob durably (replicated to a quorum before the response).
	KindWriteReq
	// KindWriteResp answers a KindWriteReq (ReqID matches; Err on failure).
	KindWriteResp
	// KindReplAppend ships one mutation batch (Blob) from a partition
	// primary to a follower, stamped with the primary's Epoch and the
	// per-partition Seq. Followers reject stale epochs.
	KindReplAppend
	// KindReplAck acknowledges a KindReplAppend. Mode distinguishes ack (0)
	// from nak (1, follower is missing records before Seq and reports its
	// applied sequence) and from a promotion-time sequence query/answer.
	KindReplAck
	// KindSnapshot streams partition state for catch-up and shard handoff:
	// Mode 0 requests a snapshot, Mode 1 carries one mutation-batch chunk,
	// Mode 2 is the final chunk (Seq = WAL position the snapshot covers),
	// Mode 3 acknowledges completion.
	KindSnapshot
	// KindRouteUpdate gossips an epoch-stamped route table (Blob); the
	// receiver merges it per partition, higher epoch wins.
	KindRouteUpdate
)

// Introspection documents (wire.Message.Mode on KindIntrospectReq).
const (
	// IntrospectSpans asks for the backend's buffered execution spans of
	// one traversal as a trace.SpanDump, with the ledger summary when the
	// backend coordinated it.
	IntrospectSpans = 1
	// IntrospectEvents asks for the backend's cluster event journal
	// (suspicions, promotions, epoch bumps, handoffs — see
	// internal/events), oldest first.
	IntrospectEvents = 2
	// IntrospectStatus asks for the backend's replication/engine status
	// document (per-partition epoch, role, watermarks, lag — see
	// internal/status).
	IntrospectStatus = 3
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindStartTravel:
		return "StartTravel"
	case KindDispatch:
		return "Dispatch"
	case KindReturnSig:
		return "ReturnSig"
	case KindResult:
		return "Result"
	case KindExecEvents:
		return "ExecEvents"
	case KindStepGo:
		return "StepGo"
	case KindTravelDone:
		return "TravelDone"
	case KindVisitReq:
		return "VisitReq"
	case KindVisitResp:
		return "VisitResp"
	case KindProgressReq:
		return "ProgressReq"
	case KindProgressResp:
		return "ProgressResp"
	case KindCancel:
		return "Cancel"
	case KindHeartbeat:
		return "Heartbeat"
	case KindPeerDown:
		return "PeerDown"
	case KindIntrospectReq:
		return "IntrospectReq"
	case KindIntrospectResp:
		return "IntrospectResp"
	case KindWriteReq:
		return "WriteReq"
	case KindWriteResp:
		return "WriteResp"
	case KindReplAppend:
		return "ReplAppend"
	case KindReplAck:
		return "ReplAck"
	case KindSnapshot:
		return "Snapshot"
	case KindRouteUpdate:
		return "RouteUpdate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is one frontier element: a candidate vertex tagged with its most
// recent rtn()-marked ancestor (vertex plus the step at which it was
// marked) and the server that must receive the end-of-chain signal for that
// ancestor (the "reporting destination" of Fig. 4). Dest < 0 means no rtn
// level is open. In KindReturnSig messages, Vertex and AncStep identify the
// marked vertex being signalled. It is the engine's frontier key itself: a
// decoded batch goes to the scheduler, the cache and the outboxes as it is.
// A receiver must treat Entries as read-only — the in-process fabric hands
// over the sender's slice, and a duplicated delivery shares one.
type Entry = frontier.Key

// ExecRef identifies one traversal execution in the coordinator ledger.
type ExecRef struct {
	ID     uint64
	Server int32
	Step   int32
}

// Message is the single on-the-wire envelope; which fields are meaningful
// depends on Kind. A flat struct keeps the codec simple and lets the
// in-process transport pass messages by value with no marshaling.
type Message struct {
	Kind     Kind
	TravelID uint64
	Step     int32
	Mode     uint8
	Coord    int32
	// Peer names the backend a KindPeerDown message suspects.
	Peer    int32
	Plan    []byte
	ExecID  uint64
	Entries []Entry
	Created []ExecRef
	Ended   []uint64
	Verts   []model.VertexID
	ReqID   uint64
	// ParentExec is the ledger id of the execution whose outputs produced
	// this message's payload: the causal parent of the execution a
	// KindDispatch / KindReturnSig creates, or of a client-mode
	// KindVisitReq's span. Zero marks a root (client submission or seed
	// scan) — execution ids are minted with a nonzero server tag, so zero
	// is never a real id.
	ParentExec uint64
	// Epoch is the sender's view of the partition's fencing epoch
	// (replication and route messages).
	Epoch uint64
	// Seq is the per-partition replication sequence number of a
	// KindReplAppend / KindReplAck, or the WAL position a snapshot covers.
	Seq uint64
	// Base is the sender's epoch base in a KindReplAppend: the primary's
	// applied sequence at the moment its current epoch began. Sequence
	// numbers are only comparable within one epoch; a follower whose
	// applied sequence exceeds the advertised base holds old-epoch records
	// the new primary never saw and must resync instead of acking.
	Base uint64
	// Part is the partition id a replication message concerns.
	Part int32
	Err  string
	// Blob carries an opaque auxiliary payload: a mutation batch, name or
	// id list, route table, or a JSON introspection document,
	// as the Kind says.
	Blob []byte
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.b)
	if sz <= 0 {
		d.err = fmt.Errorf("wire: truncated uvarint")
		return 0
	}
	d.b = d.b[sz:]
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("wire: truncated bytes")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// count validates a declared element count against the bytes actually
// remaining: each element needs at least minSize bytes, so a count that
// cannot fit is corruption. This bounds allocation before any make() —
// the decoder sits on a network trust boundary.
func (d *decoder) count(n uint64, minSize int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b))/uint64(minSize) {
		d.err = fmt.Errorf("wire: declared %d elements but only %d bytes remain", n, len(d.b))
		return 0
	}
	return int(n)
}
