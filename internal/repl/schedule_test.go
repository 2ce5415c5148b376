package repl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"graphtrek/internal/metrics"
	"graphtrek/internal/route"
	"graphtrek/internal/wire"
)

// The random-schedule property test: three machines for one partition,
// wired through a message queue that drops, duplicates and reorders, with
// client writes, suspicions (false ones, and crashes that silence a server),
// recoveries, joins (retried, as an operator would, while they have not
// taken) and timers interleaved by a seeded generator; half the route gossip
// is late, so a new primary's appends and streams reach servers that still
// believe the old table. After every machine step the invariants in check
// must hold on every machine, and the stream a machine asked for is never
// turned away.
//
// Two things are deliberately kinder than a real cluster. Suspicion is
// global (every server agrees who is down, at most one at a time) and
// proposals are serialised through one table, so an epoch names one
// assignment: DESIGN §12's staggered double promotion is the transition
// this harness does not have, not one the machine rules out.

const simServers = 3

type packet struct {
	to    int32
	ev    Event
	table *route.Assignment // the sender's route table, where the protocol attaches one
	at    time.Time         // Tick and late gossip: when it is due
}

type simWrite struct {
	srv  int32
	seq  uint64
	blob []byte
}

type simTrack struct {
	role                   Role
	epoch, applied, commit uint64
}

type sim struct {
	t       *testing.T
	rng     *rand.Rand
	now     time.Time
	ms      []*Machine
	views   []route.Assignment // each server's own copy of the assignment
	global  route.Assignment   // the table proposals are serialised through
	down    []bool             // suspected by everyone
	crashed []bool             // down and silent
	queue   []packet
	timers  []packet
	writes  map[uint64]simWrite
	nextReq uint64
	last    []simTrack
	acked   int
	early   int // snapshot data that beat the gossip naming its sender primary
	seed    int64
	steps   int // machine steps taken; with the seed, names a failure
}

func newSim(t *testing.T, seed int64) *sim {
	s := &sim{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), now: t0, global: assign(1, 0, 1, 2),
		down: make([]bool, simServers), crashed: make([]bool, simServers),
		writes: map[uint64]simWrite{}, last: make([]simTrack, simServers)}
	for i := int32(0); i < simServers; i++ {
		cfg := testConfig(i)
		cfg.WriteTimeout = 40 * time.Millisecond
		cfg.PollWait = 2 * time.Millisecond // short enough that votes go missing and a laggard promotes
		cfg.Live = func(srv int32) bool { return !s.down[srv] }
		s.views = append(s.views, s.global)
		s.ms = append(s.ms, New(cfg, s.global))
	}
	return s
}

var (
	simAckEvents  = []EventKind{Ack, Nak, Fence, SeqQuery, SeqInfo}
	simSnapEvents = []EventKind{SnapReq, SnapChunk, SnapFinal, SnapDone, Join}
)

// step delivers one event to server i the way the shell does: merge a
// carried table first, step, execute the effects.
func (s *sim) step(i int32, ev Event, table *route.Assignment) {
	if s.crashed[i] {
		return
	}
	if table != nil && table.Epoch > s.views[i].Epoch {
		s.views[i] = *table
		if ev.Kind != Assign {
			s.stepped(i, Event{Kind: Assign})
		}
	}
	s.stepped(i, ev)
}

func (s *sim) stepped(i int32, ev Event) {
	m := s.ms[i]
	asked := (ev.Kind == SnapChunk || ev.Kind == SnapFinal) && m.role == Joining && m.src == ev.From
	out := m.Step(s.now, s.views[i], ev, nil)
	s.steps++
	s.check()
	if asked {
		// The stream a machine asked for is taken, also when it outruns the
		// gossip that names its sender primary.
		if counted(out, metrics.EpochRejects) != 0 {
			s.t.Fatalf("seed/step %d: server %d rejected snapshot data from server %d, which it had asked", [2]int64{s.seed, int64(s.steps)}, i, ev.From)
		}
		if s.views[i].Primary != ev.From {
			s.early++
		}
	}
	s.exec(i, out)
}

func (s *sim) exec(i int32, out []Effect) {
	for _, e := range out {
		switch e.Kind {
		case Send:
			if e.To >= simServers {
				if e.Wire == wire.KindWriteResp && e.Err == "" {
					s.ackedWrite(i, e.ReqID)
				}
				continue
			}
			ev := Event{From: i, ReqID: e.ReqID, Epoch: e.Epoch, Seq: e.Seq, Base: e.Base, Blob: e.Blob}
			switch e.Wire {
			case wire.KindReplAppend:
				ev.Kind = Append
			case wire.KindReplAck:
				ev.Kind = simAckEvents[e.Mode]
			case wire.KindSnapshot:
				ev.Kind = simSnapEvents[e.Mode]
			}
			p := packet{to: e.To, ev: ev}
			if e.Table {
				v := s.views[i]
				p.table = &v
			}
			s.queue = append(s.queue, p)
		case Apply:
			if e.Seq == 0 {
				continue
			}
			ev := Event{Kind: Applied, From: e.To, Epoch: e.Epoch, Seq: e.Seq, Blob: e.Blob, Snap: e.Snap}
			if s.rng.Intn(2) == 0 { // a slow apply: other handlers run first
				s.queue = append(s.queue, packet{to: i, ev: ev})
			} else {
				s.step(i, ev, nil)
			}
		case Snapshot:
			if s.rng.Intn(8) == 0 {
				continue // the stream failed part-way
			}
			s.queue = append(s.queue,
				packet{to: e.To, ev: Event{Kind: SnapChunk, From: i, Blob: []byte{0}}},
				packet{to: e.To, ev: Event{Kind: SnapFinal, From: i, Epoch: e.Epoch, Seq: e.Seq}})
		case Propose:
			if e.Next.Epoch <= s.global.Epoch {
				// Lost to a concurrent proposal; the winner's table comes back
				// the way a peer answers stale gossip.
				g := s.global
				s.queue = append(s.queue, packet{to: i, ev: Event{Kind: Assign}, table: &g})
				continue
			}
			s.global = e.Next
			for j := int32(0); j < simServers; j++ {
				if j == i {
					continue
				}
				next := e.Next
				p := packet{to: j, ev: Event{Kind: Assign}, table: &next}
				if s.rng.Intn(2) == 0 {
					// Late gossip: the new primary's appends and streams get there first.
					p.at = s.now.Add(time.Duration(s.rng.Intn(100)) * time.Millisecond)
					s.timers = append(s.timers, p)
					continue
				}
				s.queue = append(s.queue, p)
			}
			next := e.Next
			s.step(i, Event{Kind: Assign}, &next)
		case Timer:
			s.timers = append(s.timers, packet{to: i, ev: Event{Kind: Tick}, at: s.now.Add(e.D)})
		}
	}
}

// ackedWrite: every write a machine acknowledged is in its ring, or older
// than the ring, on the machine that acknowledged it.
func (s *sim) ackedWrite(i int32, reqID uint64) {
	w, m := s.writes[reqID], s.ms[i]
	s.acked++
	switch {
	case w.srv != i:
		s.t.Fatalf("seed %d: server %d acked write %d that server %d sequenced", s.seed, i, reqID, w.srv)
	case m.evicted(w.seq) && len(m.ring) > 0:
	case w.seq > m.applied || len(m.ring) == 0 || !bytes.Equal(m.ring[w.seq-m.ringStart], w.blob):
		s.t.Fatalf("seed %d: server %d acked write %d at seq %d but its ring [%d,+%d) does not hold it",
			s.seed, i, reqID, w.seq, m.ringStart, len(m.ring))
	}
}

func (s *sim) check() {
	n := [2]int64{s.seed, int64(s.steps)}
	primaries := map[uint64]int{}
	for i, m := range s.ms {
		was := s.last[i]
		switch {
		case m.role != None && was.role != None && m.epoch == was.epoch && m.applied < was.applied:
			s.t.Fatalf("seed/step %d: server %d applied regressed %d -> %d within epoch %d", n, i, was.applied, m.applied, m.epoch)
		case m.commit > m.applied:
			s.t.Fatalf("seed/step %d: server %d commit %d above applied %d", n, i, m.commit, m.applied)
		case m.role == Primary && was.role == Primary && m.commit < was.commit:
			s.t.Fatalf("seed/step %d: server %d commit regressed %d -> %d", n, i, was.commit, m.commit)
		case len(m.ring) > RingCap || len(m.ring) > 0 && m.ringStart+uint64(len(m.ring)) != m.applied+1:
			s.t.Fatalf("seed/step %d: server %d ring [%d,+%d) not contiguous with applied %d", n, i, m.ringStart, len(m.ring), m.applied)
		}
		if m.role == Primary {
			if j, dup := primaries[m.epoch]; dup {
				s.t.Fatalf("seed/step %d: servers %d and %d are both primary in epoch %d", n, j, i, m.epoch)
			}
			primaries[m.epoch] = i
		}
		s.last[i] = simTrack{m.role, m.epoch, m.applied, m.commit}
	}
}

func (s *sim) run(steps int) {
	for n := 0; n < steps; n++ {
		s.now = s.now.Add(time.Millisecond)
		switch r := s.rng.Intn(100); {
		case r < 30:
			i := int32(s.rng.Intn(simServers))
			if !s.crashed[i] && s.views[i].Primary == i {
				s.nextReq++
				blob := binary.BigEndian.AppendUint64(nil, s.nextReq)
				s.writes[s.nextReq] = simWrite{i, s.ms[i].applied + 1, blob}
				s.step(i, Event{Kind: Write, From: client, ReqID: s.nextReq, Blob: blob, Start: s.now}, nil)
			}
		case r < 33:
			s.fault()
		case r < 36:
			// The operator's JoinPartition, retried while it has not taken: a
			// stream that fails part-way leaves a stalled join behind.
			i := int32(s.rng.Intn(simServers))
			if !s.views[i].HasReplica(i) {
				s.step(i, Event{Kind: Join}, nil)
			}
		}
		// Deliver with bounded reordering (a message overtakes at most seven
		// others), faster the longer the queue. Unbounded reordering turns
		// every re-shipped run into a nak per record and the queue explodes.
		for k := 1 + len(s.queue)/4; k > 0 && len(s.queue) > 0; k-- {
			at, f := s.rng.Intn(min(8, len(s.queue))), s.rng.Intn(20)
			s.queue[0], s.queue[at] = s.queue[at], s.queue[0]
			p := s.queue[0]
			if f != 1 { // 1: duplicated — delivered now and again later
				s.queue = s.queue[1:]
			}
			if f != 0 { // 0: dropped
				s.step(p.to, p.ev, p.table)
			}
		}
		due := s.timers[:0]
		for _, p := range s.timers {
			if p.at.After(s.now) {
				due = append(due, p)
				continue
			}
			s.step(p.to, p.ev, p.table)
		}
		s.timers = due
	}
}

// fault suspects one server — half the time it really is silent — or, when
// one is already suspected, brings it back.
func (s *sim) fault() {
	ev := Event{Kind: PeerDown}
	for d := range s.down {
		if s.down[d] {
			s.down[d], s.crashed[d] = false, false
			ev = Event{Kind: PeerUp, From: int32(d)}
		}
	}
	if ev.Kind == PeerDown {
		ev.From = int32(s.rng.Intn(simServers))
		s.down[ev.From], s.crashed[ev.From] = true, s.rng.Intn(2) == 0
	}
	for j := int32(0); j < simServers; j++ {
		if j != ev.From {
			s.step(j, ev, nil)
		}
	}
}

func TestMachineRandomSchedules(t *testing.T) {
	seeds, steps := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, 40000
	if testing.Short() {
		seeds, steps = seeds[:3], 4000
	}
	early := 0
	for _, seed := range seeds {
		s := newSim(t, seed)
		s.run(steps)
		early += s.early
		promoted := 0
		for _, m := range s.ms {
			if m.seen > 1 {
				promoted++
			}
		}
		if s.acked == 0 || s.global.Epoch < 3 || promoted == 0 {
			t.Errorf("seed %d exercised too little: %d acked writes, epoch %d", seed, s.acked, s.global.Epoch)
		}
	}
	if early == 0 && !testing.Short() {
		t.Errorf("no schedule delivered snapshot data ahead of the route gossip")
	}
}
