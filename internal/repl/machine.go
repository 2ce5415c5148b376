// Package repl is the replication protocol of one partition on one server,
// written as a pure state machine (DESIGN.md §12 is its role × event table).
// Step takes an event, the current time and the partition's current
// assignment, mutates only the Machine and returns what the caller must now
// do as a list of effects: send a message, apply a batch to the store,
// stream a snapshot, propose an assignment, arm a timer, journal, count,
// record a quorum write's latency.
// There is no lock, clock, goroutine or transport in here; internal/core
// holds the mutex, executes the effects and feeds their outcomes back in as
// further events, and a test can drive any number of machines through a
// message queue of its own.
package repl

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/metrics"
	"graphtrek/internal/route"
	"graphtrek/internal/status"
	"graphtrek/internal/wire"
)

// Error sentinels. They travel as message text, so classification matches
// on their strings.
var (
	// ErrWrongEpoch fences a stale primary: a replica with a newer epoch
	// for the partition rejected its write or append.
	ErrWrongEpoch = errors.New("core: write fenced by a newer partition epoch (stale primary)")
	// ErrPartitionMoved rejects work routed with a stale table: the
	// partition's primary is now another server. The sender refreshes its
	// route view and retries.
	ErrPartitionMoved = errors.New("core: partition moved to another server (stale route)")
)

// Sub-modes of wire.KindReplAck and wire.KindSnapshot (wire.Message.Mode).
// The numbers are wire format.
const (
	ModeAck      = 0 // follower applied through Seq
	ModeNak      = 1 // follower is missing records; Seq = its applied seq
	ModeFence    = 2 // receiver fenced the sender's stale epoch; Blob = route table
	ModeSeqQuery = 3 // promotion driver asks for the applied seq
	ModeSeqInfo  = 4 // answer to a seq query; Seq = applied seq

	SnapModeReq   = 0 // joiner or lagging follower asks the primary for a stream
	SnapModeChunk = 1 // one mutation batch
	SnapModeFinal = 2 // end of stream; Seq/Epoch = what the snapshot covers
	SnapModeDone  = 3 // receiver applied the stream; Seq = its applied seq
	SnapModeNudge = 4 // primary invites a recovered ex-replica back; Blob = route table
)

// RingCap bounds the ring of recent records kept for gap repair; a gap
// older than the ring falls back to a snapshot stream.
const RingCap = 1024

// Role is what this server is for the partition. It is set in New, observe,
// resync, join and the snapshot-final transition, and nowhere else.
type Role uint8

const (
	None     Role = iota // holds nothing for the partition
	Follower             // applies the primary's appends in sequence order
	Joining              // snapshot in flight: appends are buffered, not applied
	Primary              // sequences writes, ships them, counts quorums
)

// EventKind names a transition input.
type EventKind uint8

const (
	// Write: the caller applied a client batch to the primary's store inside
	// the critical section it calls Step from; sequence and ship it. From,
	// ReqID, Blob (the batch), Reply (rides on the success response), Start.
	Write    EventKind = iota
	Append             // KindReplAppend from From: Epoch, Seq, Base, Blob
	Applied            // an Apply effect reached the store: From, Epoch, Seq, Blob, Snap echo it
	Ack                // KindReplAck sub-modes: From, Epoch, Seq
	Nak                //
	Fence              //
	SeqQuery           //
	SeqInfo            //
	SnapReq            // KindSnapshot sub-modes: From, Epoch, Seq, Blob
	SnapChunk
	SnapFinal
	SnapDone
	Join     // JoinPartition, or a rejoin nudge whose table was merged first
	Assign   // the route view changed; Step's assignment argument is the news
	PeerDown // the failure detector condemned From (majority guard passed)
	PeerUp   // From's suspicion cleared
	Tick     // a Timer effect fired
)

// Event is one input to Step.
type Event struct {
	Kind             EventKind
	Snap             bool
	From             int32
	ReqID            uint64
	Epoch, Seq, Base uint64
	Blob, Reply      []byte
	Start            time.Time
}

// EffectKind names something the caller must do after Step returns and the
// lock is released, in list order.
type EffectKind uint8

const (
	// Send transmits wire.Message{Kind: Wire, Mode, ReqID, Epoch, Seq, Base,
	// Err, Blob} for this partition to To; with Table set, Blob is the
	// caller's encoded route table.
	Send EffectKind = iota
	// Apply writes the mutation batch Blob to the store. With Seq != 0 a
	// successful apply comes back as Applied echoing To, Epoch, Seq, Blob
	// and Snap; a snapshot chunk (Seq == 0) has no follow-up.
	Apply
	// Snapshot streams the partition to To off the handler goroutine and
	// closes with SnapModeFinal{Epoch, Seq}.
	Snapshot
	// Propose installs Next in the route view; on success the caller steps
	// Assign and gossips the table.
	Propose
	// Timer steps Tick after D.
	Timer
	// Journal records events.Event{Type: Event, Peer: To, Epoch, Detail}.
	Journal
	// Count adds N to Counter (ReplLagBytes moves by a signed delta).
	Count
	// QuorumWrite records D, one write's accept-to-quorum latency.
	QuorumWrite
)

// Effect is one output of Step.
type Effect struct {
	Kind             EffectKind
	Wire             wire.Kind
	Mode             uint8
	Counter          metrics.Counter
	Table, Snap      bool
	To               int32
	ReqID            uint64
	Epoch, Seq, Base uint64
	N                int64
	D                time.Duration
	Err              string
	Blob             []byte
	Next             route.Assignment
	Event            events.Type
	Detail           string
}

// Config is what a machine knows that never changes.
type Config struct {
	Self, Part   int32
	WriteTimeout time.Duration // a write's quorum must assemble within this
	PollWait     time.Duration // how long a promotion poll collects votes
	Factor       int           // replicas per partition at layout; 0 = unknown
	// Live reports whether the failure detector currently trusts a server.
	Live func(server int32) bool
}

// pendingWrite is a client write awaiting its quorum.
type pendingWrite struct {
	seq, reqID uint64
	from       int32
	need       int // follower acks required when it was sequenced
	start, due time.Time
	reply      []byte // only ever rides on success
}

// poll is an open promotion poll: the driver collects applied sequences
// and promotes the most caught-up live follower when it closes.
type poll struct {
	epoch uint64 // assignment epoch the poll was opened under
	dead  int32
	due   time.Time
	votes map[int32]uint64
}

// Machine is one partition's replication state on one server.
type Machine struct {
	cfg  Config
	role Role
	// seen is the epoch of the last assignment observe acted on.
	seen uint64
	// epoch is the fencing epoch the applied history was counted under.
	// Sequences compare within one epoch only; a follower adopts a higher
	// epoch from an append or a snapshot, a primary from its assignment.
	epoch, applied uint64

	// The ring holds the payloads of records [ringStart, ringStart+len(ring)),
	// always ending at applied: primaries push what they sequence, followers
	// what they apply, so a promoted follower serves repair from the history
	// it actually holds.
	ring      [][]byte
	ringTimes []int64 // per record: apply stamp, unix nanos (status age)
	ringStart uint64

	// Primary side.
	since   uint64           // epoch this primaryship began at
	base    uint64           // applied when the current epoch began
	commit  uint64           // highest seq a quorum holds; monotone per primaryship
	acked   map[int32]uint64 // follower -> highest acked seq
	lag     int64            // bytes shipped minus bytes acked
	pending []pendingWrite   // ascending seq
	joiners map[int32]bool   // snapshot streams in flight; they get live appends
	poll    *poll
	wake    time.Time // earliest armed timer, zero when none

	// Follower side.
	src  int32             // Joining: the primary the snapshot comes from
	tail map[uint64][]byte // appends ahead of applied, or behind a snapshot
}

// New builds a machine whose role is what the boot assignment says. Boot
// roles are not promotions.
func New(cfg Config, a route.Assignment) *Machine {
	m := &Machine{cfg: cfg, seen: a.Epoch}
	switch {
	case a.Primary == cfg.Self:
		m.role, m.epoch, m.since = Primary, a.Epoch, a.Epoch
		m.resetPrimary()
	case a.HasReplica(cfg.Self):
		m.role, m.epoch = Follower, a.Epoch
	}
	return m
}

// Step is the machine's only mutating entry point. out is appended to and
// returned, so a caller can keep the common case off the heap.
func (m *Machine) Step(now time.Time, a route.Assignment, ev Event, out []Effect) []Effect {
	o := effects(out)
	m.observe(now, a, &o)
	switch ev.Kind {
	case Write:
		m.write(now, a, ev, &o)
	case Append:
		m.append(a, ev, &o)
	case Applied:
		if m.role == Follower && ev.Epoch == m.epoch && ev.Seq == m.applied+1 {
			// Otherwise a resync, a promotion or a duplicate delivery
			// superseded the record while it was being applied: no ack.
			m.applied = ev.Seq
			m.push(ev.Seq, ev.Blob, now)
			m.drain(ev.From, ev.Snap, &o)
		}
	case Ack:
		// A watermark measured under an older epoch votes only for history
		// this primary sequenced itself before a bump that kept it: the
		// sequences at or below the bump's base.
		if m.role == Primary && (ev.Epoch >= m.epoch || ev.Epoch >= m.since && ev.Seq <= m.base) {
			if f := ev.From; ev.Seq > m.acked[f] {
				m.addLag(-m.ringBytes(m.acked[f]+1, ev.Seq), &o)
				m.acked[f] = ev.Seq
			}
			m.reap(now, a, &o)
		}
	case Nak:
		m.repair(ev.From, ev.Seq+1, &o)
	case Fence:
		m.failPending(ErrWrongEpoch, &o)
	case SeqQuery:
		o.send(ev.From, Effect{Wire: wire.KindReplAck, Mode: ModeSeqInfo, Seq: m.applied})
	case SeqInfo:
		if m.poll != nil {
			m.poll.votes[ev.From] = ev.Seq
		}
	case SnapReq:
		if m.role == Primary { // else stale; the joiner retries off a fresh table
			// Registered before the scan starts, the joiner is forwarded every
			// append that races it; the overlap is harmless because mutations
			// are idempotent.
			m.joiners[ev.From] = true
			o.journal(events.HandoffStart, ev.From, 0, "streaming snapshot to joiner")
			m.stream(ev.From, &o)
		}
	case SnapChunk, SnapFinal:
		m.snapshotData(a, ev, &o)
	case SnapDone:
		m.snapDone(now, a, ev, &o)
	case Join:
		if !a.HasReplica(m.cfg.Self) {
			m.role, m.src = Joining, a.Primary
			o.send(a.Primary, Effect{Wire: wire.KindSnapshot, Mode: SnapModeReq})
		}
	case PeerDown:
		m.peerDown(now, a, ev.From, &o)
	case PeerUp:
		m.peerUp(a, ev.From, &o)
	case Tick:
		m.tick(now, a, &o)
	}
	return o
}

// effects is the output list under construction.
type effects []Effect

func (o *effects) add(e Effect) { *o = append(*o, e) }

func (o *effects) send(to int32, e Effect) {
	e.Kind, e.To = Send, to
	o.add(e)
}

func (o *effects) count(c metrics.Counter, n int64) { o.add(Effect{Kind: Count, Counter: c, N: n}) }

func (o *effects) journal(t events.Type, peer int32, epoch uint64, detail string) {
	o.add(Effect{Kind: Journal, Event: t, To: peer, Epoch: epoch, Detail: detail})
}

// --- Role transitions -----------------------------------------------------

// observe aligns the role with an assignment not seen before. It runs at
// the top of every Step, so a write that outruns the gossip's own Assign
// event still finds the machine in the role its assignment says.
func (m *Machine) observe(now time.Time, a route.Assignment, o *effects) {
	if a.Epoch == m.seen {
		return
	}
	m.seen = a.Epoch
	if a.Primary == m.cfg.Self {
		promoted := m.role != Primary
		if promoted {
			m.becomePrimary(a, o)
		}
		if m.epoch < a.Epoch {
			if !promoted { // a promotion entry already carries the new epoch
				o.journal(events.EpochBump, -1, a.Epoch, fmt.Sprintf("epoch %d -> %d", m.epoch, a.Epoch))
			}
			// Appends advertise the base so followers can tell a same-primary
			// epoch bump from divergence.
			m.epoch, m.base = a.Epoch, m.applied
		}
		for _, j := range sorted(m.joiners) {
			if a.HasReplica(j) {
				m.joined(j, a.Epoch, "published as follower", o)
			}
		}
		// The replica set, and with it the quorum size, may have changed.
		m.reap(now, a, o)
		return
	}
	to, why := None, ErrPartitionMoved
	if a.HasReplica(m.cfg.Self) {
		to, why = Follower, ErrWrongEpoch
	}
	switch m.role {
	case Primary:
		m.demote(why, o)
	case Joining:
		if to == Follower || a.Primary == m.src {
			return // still waiting for the stream it asked for
		}
	case Follower:
		if to == Follower {
			return
		}
	}
	if to == None {
		*m = Machine{cfg: m.cfg, seen: m.seen}
	}
	m.role = to
}

// becomePrimary is the one way into the Primary role after boot. All
// primary-side state describes an older primaryship or nothing, so it
// starts empty; the ring survives, holding exactly the lineage history
// followers are repaired from. Everything held is adopted as committed — the
// mirror of Raft's rule that a new leader commits its log by replicating
// under its own term. An append the old primary never got a quorum for can
// thereby become committed here; a committed-then-lost sequence cannot
// happen, because promotion prefers the most caught-up live follower.
func (m *Machine) becomePrimary(a route.Assignment, o *effects) {
	m.resetPrimary()
	m.role, m.tail, m.commit, m.since = Primary, nil, m.applied, a.Epoch
	o.count(metrics.Promotions, 1)
	o.journal(events.Promotion, -1, a.Epoch, fmt.Sprintf("follower -> primary at applied seq %d", m.applied))
}

// demote is the one way out of it: pending writes fail with why, and
// watermarks, counters and joiners are dropped so they cannot leak into a later primaryship. The ring
// and epoch stay — they describe what this server applied, and the new
// primary's first append adjudicates divergence against them.
func (m *Machine) demote(why error, o *effects) {
	m.failPending(why, o)
	m.addLag(-m.lag, o)
	m.resetPrimary()
}

func (m *Machine) resetPrimary() {
	m.commit = 0
	m.acked, m.joiners = map[int32]uint64{}, map[int32]bool{}
}

func (m *Machine) failPending(why error, o *effects) {
	for _, pw := range m.pending {
		o.send(pw.from, Effect{Wire: wire.KindWriteResp, ReqID: pw.reqID, Err: why.Error()})
	}
	m.pending = nil
}

// --- Primary: write, ack, repair ------------------------------------------

func (m *Machine) write(now time.Time, a route.Assignment, ev Event, o *effects) {
	reply := Effect{Wire: wire.KindWriteResp, ReqID: ev.ReqID, Blob: ev.Reply}
	if m.role != Primary {
		// The caller checked the assignment before touching the store, so
		// this is unreachable; answering beats sequencing as a non-primary.
		reply.Blob, reply.Err, reply.Table = nil, ErrPartitionMoved.Error(), true
		o.send(ev.From, reply)
		return
	}
	m.applied++
	m.push(m.applied, ev.Blob, now)
	// m.epoch, not a.Epoch: Epoch and Base are the pair followers adjudicate
	// divergence with.
	app := Effect{Wire: wire.KindReplAppend, Epoch: m.epoch, Seq: m.applied, Base: m.base, Blob: ev.Blob}
	targets := 0
	for _, f := range a.Followers {
		o.send(f, app)
		targets++
	}
	for _, j := range sorted(m.joiners) {
		if !a.HasReplica(j) {
			o.send(j, app)
			targets++
		}
	}
	m.addLag(int64(len(ev.Blob)*targets), o)
	need := a.Quorum() - 1 // the local apply is the primary's own vote
	if need <= 0 {
		// The primary alone is the quorum: commit at once.
		o.add(Effect{Kind: QuorumWrite, D: now.Sub(ev.Start)})
		o.send(ev.From, reply)
		m.advanceCommit(a)
		return
	}
	due := now.Add(m.cfg.WriteTimeout)
	m.pending = append(m.pending, pendingWrite{seq: m.applied, reqID: ev.ReqID, from: ev.From,
		need: need, start: ev.Start, due: due, reply: ev.Reply})
	m.arm(now, due, o)
}

func (m *Machine) addLag(d int64, o *effects) {
	if d != 0 {
		m.lag += d
		o.count(metrics.ReplLagBytes, d)
	}
}

// votes counts the followers whose ack watermark has reached seq.
func (m *Machine) votes(a route.Assignment, seq uint64) int {
	n := 0
	for _, f := range a.Followers {
		if m.acked[f] >= seq {
			n++
		}
	}
	return n
}

// reap is the one quorum check: it completes every pending write the
// current replica set holds often enough, then advances the commit
// watermark. A write needs the smaller of the ack count it was sequenced
// under and today's — a shrunk set must not strand it, a grown one must not
// raise its bar.
func (m *Machine) reap(now time.Time, a route.Assignment, o *effects) {
	need, kept := a.Quorum()-1, m.pending[:0]
	for _, pw := range m.pending {
		if m.votes(a, pw.seq) < min(pw.need, need) {
			kept = append(kept, pw)
			continue
		}
		o.add(Effect{Kind: QuorumWrite, D: now.Sub(pw.start)})
		o.send(pw.from, Effect{Wire: wire.KindWriteResp, ReqID: pw.reqID, Blob: pw.reply})
	}
	clear(m.pending[len(kept):])
	m.pending = kept
	m.advanceCommit(a)
}

// commitFloor is the highest sequence a quorum holds: the need-th highest
// follower ack, capped at what the primary itself applied (an ack can run
// ahead of it mid-handoff).
func (m *Machine) commitFloor(a route.Assignment) uint64 {
	need := a.Quorum() - 1
	if need <= 0 {
		return m.applied
	}
	var c uint64
	for _, f := range a.Followers {
		if v := m.acked[f]; v > c && m.votes(a, v) >= need {
			c = v
		}
	}
	return min(c, m.applied)
}

// advanceCommit raises the commit watermark to the quorum floor. A
// replica-set change can lower the floor; what was committed stays
// committed.
func (m *Machine) advanceCommit(a route.Assignment) {
	m.commit = max(m.commit, m.commitFloor(a))
}

// repair re-ships what a nak reported missing, from the ring when it covers
// the gap and by snapshot otherwise.
func (m *Machine) repair(f int32, first uint64, o *effects) {
	if m.role != Primary {
		return
	}
	if m.evicted(first) {
		m.stream(f, o)
		return
	}
	for seq := first; seq <= m.applied; seq++ {
		o.send(f, Effect{Wire: wire.KindReplAppend, Epoch: m.epoch, Seq: seq, Base: m.base, Blob: m.ring[seq-m.ringStart]})
	}
}

// stream starts a snapshot to a joiner, or to a follower the ring cannot
// repair. It covers everything applied before the scan starts; the live
// appends the receiver is shipped cover the rest.
func (m *Machine) stream(to int32, o *effects) {
	o.add(Effect{Kind: Snapshot, To: to, Epoch: m.epoch, Seq: m.applied})
}

func (m *Machine) joined(j int32, epoch uint64, how string, o *effects) {
	if m.joiners[j] {
		delete(m.joiners, j)
		o.journal(events.HandoffDone, j, epoch, fmt.Sprintf("joiner caught up at seq %d, %s", m.acked[j], how))
	}
}

// snapDone: the receiver applied a stream. Its watermark counts as an ack —
// after a divergence resync it may complete the very write whose append
// triggered the resync — and a server outside the replica set is proposed
// as a follower; observe finishes the handoff when that assignment lands.
func (m *Machine) snapDone(now time.Time, a route.Assignment, ev Event, o *effects) {
	if m.role != Primary {
		return
	}
	m.acked[ev.From] = max(m.acked[ev.From], ev.Seq)
	if a.HasReplica(ev.From) {
		m.joined(ev.From, a.Epoch, "already in replica set", o)
		m.reap(now, a, o)
		return
	}
	next := route.Assignment{Epoch: a.Epoch + 1, Primary: a.Primary,
		Followers: append(append([]int32(nil), a.Followers...), ev.From)}
	o.add(Effect{Kind: Propose, Next: next})
}

// --- Follower: append, snapshot, drain ------------------------------------

func (m *Machine) append(a route.Assignment, ev Event, o *effects) {
	if ev.Epoch < a.Epoch {
		// The sender is a deposed primary; the table teaches it so.
		o.count(metrics.EpochRejects, 1)
		o.send(ev.From, Effect{Wire: wire.KindReplAck, Mode: ModeFence, Epoch: a.Epoch, Seq: ev.Seq, Table: true})
		return
	}
	switch m.role {
	case Primary:
		return // a primary its own view has not deposed yet takes no appends
	case None:
		m.role = Follower // a joiner whose state was dropped mid-handoff
	}
	if ev.Epoch > m.epoch {
		// First append of a newer epoch. History past the new primary's base
		// is old-epoch records it never saw: treating its records at those
		// sequences as duplicates would ack, and count toward quorum, writes
		// this replica does not hold. Discard the counter and resync.
		m.epoch = ev.Epoch
		if m.applied > ev.Base && m.role != Joining {
			m.role, m.src, m.applied = Joining, ev.From, 0
			m.ring, m.ringTimes = nil, nil
			m.tail = map[uint64][]byte{ev.Seq: ev.Blob}
			o.send(ev.From, Effect{Wire: wire.KindSnapshot, Mode: SnapModeReq})
			return
		}
	}
	switch {
	case m.role == Joining || ev.Seq > m.applied+1:
		if m.tail == nil {
			m.tail = map[uint64][]byte{}
		}
		m.tail[ev.Seq] = ev.Blob
		if m.role == Follower { // a gap: report what is held, the primary re-ships
			o.send(ev.From, Effect{Wire: wire.KindReplAck, Mode: ModeNak, Epoch: m.epoch, Seq: m.applied})
		}
	case ev.Seq == m.applied+1:
		o.add(Effect{Kind: Apply, To: ev.From, Epoch: m.epoch, Seq: ev.Seq, Blob: ev.Blob})
	default: // duplicate delivery: ack so the primary's watermark advances
		m.drain(ev.From, false, o)
	}
}

// drain is the one in-order continuation: apply the next buffered record if
// there is one, else report the watermark — as snapshot-done when the drain
// began at a snapshot's final chunk, as a plain ack otherwise. Acks carry
// the epoch the watermark belongs to.
func (m *Machine) drain(to int32, snap bool, o *effects) {
	if blob, ok := m.tail[m.applied+1]; ok {
		delete(m.tail, m.applied+1)
		o.add(Effect{Kind: Apply, To: to, Epoch: m.epoch, Seq: m.applied + 1, Blob: blob, Snap: snap})
		return
	}
	for seq := range m.tail { // at or below the watermark: covered
		if seq <= m.applied {
			delete(m.tail, seq)
		}
	}
	if snap {
		o.send(to, Effect{Wire: wire.KindSnapshot, Mode: SnapModeDone, Seq: m.applied})
		return
	}
	o.send(to, Effect{Wire: wire.KindReplAck, Mode: ModeAck, Epoch: m.epoch, Seq: m.applied})
}

// snapshotData takes a chunk or the final marker from the one server allowed
// to write this replica's store: the primary a Joining machine asked (a
// resync begun by a higher-epoch append can run ahead of the gossip that
// names the sender primary), else the assignment's primary, whose nak
// repair streams unasked. A deposed primary mid-stream or a client id is
// neither.
func (m *Machine) snapshotData(a route.Assignment, ev Event, o *effects) {
	src := a.Primary
	if m.role == Joining {
		src = m.src
	}
	if ev.From != src || m.role == Primary {
		o.count(metrics.EpochRejects, 1)
		return
	}
	if len(ev.Blob) > 0 {
		o.add(Effect{Kind: Apply, Blob: ev.Blob}) // idempotent; a failed chunk shows as a stalled join
	}
	if ev.Kind == SnapChunk {
		return
	}
	// The snapshot hands over the streamer's history, so the applied counter
	// is now measured in the streamer's epoch.
	m.epoch = max(m.epoch, ev.Epoch)
	if ev.Seq > m.applied {
		// The jump leaves whatever the ring retained non-contiguous.
		m.applied, m.ring, m.ringTimes = ev.Seq, nil, nil
	}
	m.role = Follower
	m.drain(ev.From, true, o)
}

// --- Failover -------------------------------------------------------------

// liveFollowers lists the followers that are trusted and not the condemned
// server, in promotion-preference order.
func (m *Machine) liveFollowers(a route.Assignment, dead int32) []int32 {
	var live []int32
	for _, f := range a.Followers {
		if f != dead && m.cfg.Live(f) {
			live = append(live, f)
		}
	}
	return live
}

func (m *Machine) peerDown(now time.Time, a route.Assignment, dead int32, o *effects) {
	self := m.cfg.Self
	switch {
	case a.Primary == dead && a.HasReplica(self):
		live := m.liveFollowers(a, dead)
		if len(live) == 0 || live[0] != self {
			// Another follower outranks this one as driver. Dueling proposals
			// would converge (higher epoch wins); one driver keeps epochs dense.
			return
		}
		if len(live) == 1 {
			m.promote(a, self, live, dead, o)
			return
		}
		m.poll = &poll{epoch: a.Epoch, dead: dead, due: now.Add(m.cfg.PollWait), votes: map[int32]uint64{self: m.applied}}
		for _, f := range live[1:] {
			o.send(f, Effect{Wire: wire.KindReplAck, Mode: ModeSeqQuery})
		}
		m.arm(now, m.poll.due, o)
	case a.Primary == self && a.HasReplica(dead):
		// Publish a shrunk set so quorum counting stops waiting for it.
		m.promote(a, self, a.Followers, dead, o)
	}
}

// promote proposes prim as primary of the next epoch, followed by the rest
// of from. The condemned server is left out: a dead primary's possibly
// diverged copy serves nothing until it rejoins through a snapshot.
func (m *Machine) promote(a route.Assignment, prim int32, from []int32, dead int32, o *effects) {
	next := route.Assignment{Epoch: a.Epoch + 1, Primary: prim}
	for _, f := range from {
		if f != prim && f != dead {
			next.Followers = append(next.Followers, f)
		}
	}
	o.add(Effect{Kind: Propose, Next: next})
}

// peerUp invites a recovered server back into a replica set that shrank
// below its factor while it was away; without this a network blip erodes
// durability for good.
func (m *Machine) peerUp(a route.Assignment, peer int32, o *effects) {
	if m.role != Primary || a.HasReplica(peer) || m.joiners[peer] {
		return
	}
	if rf := m.cfg.Factor; rf >= 2 && len(a.Followers)+1 >= rf {
		return // someone else already restored the factor
	}
	o.count(metrics.RejoinNudges, 1)
	o.journal(events.RejoinNudge, peer, 0, "inviting recovered peer back into the replica set")
	o.send(peer, Effect{Wire: wire.KindSnapshot, Mode: SnapModeNudge, Table: true})
}

// arm asks for a Tick at t unless an earlier one is already coming.
func (m *Machine) arm(now, t time.Time, o *effects) {
	if m.wake.IsZero() || t.Before(m.wake) {
		m.wake = t
		o.add(Effect{Kind: Timer, D: t.Sub(now)})
	}
}

// tick expires what is due — writes whose quorum never assembled (the
// client retries after failover settles), a promotion poll — and re-arms
// for whatever is left.
func (m *Machine) tick(now time.Time, a route.Assignment, o *effects) {
	if m.wake.IsZero() || now.Before(m.wake) {
		// A timer arm() has since undercut. Acting on it would re-arm a
		// duplicate of the one still coming, and the duplicates would breed.
		return
	}
	m.wake = time.Time{}
	kept := m.pending[:0]
	for _, pw := range m.pending {
		if pw.due.After(now) {
			kept = append(kept, pw)
			continue
		}
		o.send(pw.from, Effect{Wire: wire.KindWriteResp, ReqID: pw.reqID,
			Err: fmt.Sprintf("core: server %d write quorum timed out, retry later", m.cfg.Self)})
	}
	clear(m.pending[len(kept):])
	m.pending = kept
	if p := m.poll; p != nil && !p.due.After(now) {
		m.poll = nil
		if a.Epoch == p.epoch { // else someone already installed a newer assignment
			best, bestSeq := m.cfg.Self, p.votes[m.cfg.Self]
			for _, f := range sorted(p.votes) { // a tie goes to self, then the lowest id
				if v := p.votes[f]; v > bestSeq {
					best, bestSeq = f, v
				}
			}
			m.promote(a, best, m.liveFollowers(a, p.dead), p.dead, o)
		}
	}
	if m.poll != nil {
		m.arm(now, m.poll.due, o)
	}
	if len(m.pending) > 0 {
		m.arm(now, m.pending[0].due, o)
	}
}

// --- Ring -----------------------------------------------------------------

func (m *Machine) push(seq uint64, blob []byte, now time.Time) {
	if len(m.ring) == 0 {
		m.ringStart = seq
	}
	m.ring = append(m.ring, blob)
	m.ringTimes = append(m.ringTimes, now.UnixNano())
	// Trimming by copy is the parent's behaviour, kept so this refactor
	// moves no benchmark number; CHANGES.md (PR 13) has what a circular
	// buffer measures and why it is a change of its own.
	if drop := len(m.ring) - RingCap; drop > 0 {
		m.ring = append([][]byte(nil), m.ring[drop:]...)
		m.ringTimes = append([]int64(nil), m.ringTimes[drop:]...)
		m.ringStart += uint64(drop)
	}
}

// evicted reports that seq is older than anything the ring retains.
func (m *Machine) evicted(seq uint64) bool { return len(m.ring) == 0 || seq < m.ringStart }

// ringBytes sums the payload bytes of retained records in [lo, hi]; evicted
// ones count zero.
func (m *Machine) ringBytes(lo, hi uint64) int64 {
	var n int64
	for seq := max(lo, m.ringStart); seq <= hi && seq < m.ringStart+uint64(len(m.ring)); seq++ {
		n += int64(len(m.ring[seq-m.ringStart]))
	}
	return n
}

func sorted[V any](set map[int32]V) []int32 {
	if len(set) == 0 {
		return nil
	}
	keys := make([]int32, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// --- Read-only views ------------------------------------------------------

// Status is the partition's row in the server's status document; false when
// the server holds no role in it.
func (m *Machine) Status(now time.Time, a route.Assignment) (status.Partition, bool) {
	ps := status.Partition{Part: int(m.cfg.Part), Epoch: m.epoch, Primary: int(a.Primary), Role: "follower",
		AppliedSeq: m.applied, Joining: m.role == Joining}
	for _, f := range a.Followers {
		ps.Followers = append(ps.Followers, int(f))
	}
	if m.role != Primary {
		return ps, m.role != None
	}
	ps.Role, ps.CommitSeq, ps.LagBytes, ps.HandoffsInFlight = "primary", m.commit, m.lag, len(m.joiners)
	// AckedSeq is what every follower is known to hold.
	ps.AckedSeq = m.applied
	for _, f := range a.Followers {
		ps.AckedSeq = min(ps.AckedSeq, m.acked[f])
	}
	ps.LagEntries = m.applied - ps.AckedSeq
	if oldest := m.commit + 1; oldest <= m.applied && !m.evicted(oldest) {
		ps.LagAgeNs = now.UnixNano() - m.ringTimes[oldest-m.ringStart]
	}
	return ps, true
}

// Unready appends why the partition keeps this server from meeting its
// durability contract: a snapshot replay in flight, a primary below write
// quorum among trusted replicas, a handoff stream mid-flight.
func (m *Machine) Unready(a route.Assignment, reasons []string) []string {
	p := m.cfg.Part
	switch {
	case m.role == Joining:
		reasons = append(reasons, fmt.Sprintf("partition %d: snapshot replay in flight", p))
	case m.role == Primary && a.Primary == m.cfg.Self: // else an Assign that demotes is on its way
		live, q := 1+len(m.liveFollowers(a, -1)), a.Quorum()
		if live < q {
			reasons = append(reasons, fmt.Sprintf("partition %d: %d live replicas below quorum %d", p, live, q))
		}
		if n := len(m.joiners); n > 0 {
			reasons = append(reasons, fmt.Sprintf("partition %d: %d handoff stream(s) in flight", p, n))
		}
	}
	return reasons
}
