package repl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphtrek/internal/metrics"
	"graphtrek/internal/route"
	"graphtrek/internal/wire"
)

var t0 = time.Unix(1000, 0)

const client = 9 // a transport id outside the server range

func testConfig(self int32) Config {
	return Config{Self: self, WriteTimeout: time.Second, PollWait: 100 * time.Millisecond, Factor: 2,
		Live: func(int32) bool { return true }}
}

func assign(epoch uint64, primary int32, followers ...int32) route.Assignment {
	return route.Assignment{Epoch: epoch, Primary: primary, Followers: followers}
}

var wireNames = map[wire.Kind]string{
	wire.KindWriteResp: "writeResp", wire.KindReplAppend: "append", wire.KindReplAck: "ack",
	wire.KindSnapshot: "snap",
}

// brief renders the protocol-visible effects (journal, counter and latency
// effects are asserted separately where they matter) one short string each.
func brief(out []Effect) []string {
	var s []string
	for _, e := range out {
		switch e.Kind {
		case Send:
			b := fmt.Sprintf("%s/%d>%d e%d s%d", wireNames[e.Wire], e.Mode, e.To, e.Epoch, e.Seq)
			if e.Err != "" {
				b += " err"
			}
			if e.Table {
				b += " table"
			}
			s = append(s, b)
		case Apply:
			s = append(s, fmt.Sprintf("apply s%d", e.Seq))
		case Snapshot:
			s = append(s, fmt.Sprintf("snapshot>%d s%d", e.To, e.Seq))
		case Propose:
			s = append(s, fmt.Sprintf("propose e%d p%d f%v", e.Next.Epoch, e.Next.Primary, e.Next.Followers))
		case Timer:
			s = append(s, fmt.Sprintf("timer %v", e.D))
		}
	}
	return s
}

func counted(out []Effect, c metrics.Counter) (n int64) {
	for _, e := range out {
		if e.Kind == Count && e.Counter == c {
			n += e.N
		}
	}
	return n
}

func expect(t *testing.T, what string, out []Effect, want ...string) {
	t.Helper()
	if got := brief(out); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: effects %q, want %q", what, got, want)
	}
}

// follow runs a follower's Apply effects to completion the way the shell
// does (apply, then Applied), returning every other effect.
func follow(m *Machine, now time.Time, a route.Assignment, out []Effect) []Effect {
	var rest []Effect
	for len(out) > 0 {
		e := out[0]
		out = out[1:]
		if e.Kind == Apply && e.Seq != 0 {
			out = append(out, m.Step(now, a, Event{Kind: Applied, From: e.To, Epoch: e.Epoch, Seq: e.Seq, Blob: e.Blob, Snap: e.Snap}, nil)...)
			continue
		}
		rest = append(rest, e)
	}
	return rest
}

// primaryWith boots server 0 as primary and sequences n writes from client.
func primaryWith(a route.Assignment, n int) *Machine {
	m := New(testConfig(0), a)
	for i := 1; i <= n; i++ {
		m.Step(t0, a, Event{Kind: Write, From: client, ReqID: uint64(i), Blob: []byte{byte(i)}, Start: t0}, nil)
	}
	return m
}

func TestFollowerAppend(t *testing.T) {
	a := assign(1, 0, 1)
	app := func(seq uint64) Event {
		return Event{Kind: Append, From: 0, Epoch: 1, Seq: seq, Blob: []byte{byte(seq)}}
	}
	m := New(testConfig(1), a)
	expect(t, "in order", m.Step(t0, a, app(1), nil), "apply s1")
	expect(t, "applied", m.Step(t0, a, Event{Kind: Applied, From: 0, Epoch: 1, Seq: 1, Blob: []byte{1}}, nil), "ack/0>0 e1 s1")
	expect(t, "applied twice (concurrent duplicate)", m.Step(t0, a, Event{Kind: Applied, From: 0, Epoch: 1, Seq: 1}, nil))
	expect(t, "duplicate", m.Step(t0, a, app(1), nil), "ack/0>0 e1 s1")
	expect(t, "gap", m.Step(t0, a, app(3), nil), "ack/1>0 e1 s1")
	expect(t, "gap filled drains the tail", follow(m, t0, a, m.Step(t0, a, app(2), nil)), "ack/0>0 e1 s3")
	if m.applied != 3 || m.ringStart != 1 || len(m.ring) != 3 || len(m.tail) != 0 {
		t.Errorf("after drain: applied %d ring [%d,+%d) tail %d", m.applied, m.ringStart, len(m.ring), len(m.tail))
	}
	out := m.Step(t0, assign(2, 0, 1), Event{Kind: Append, From: 2, Epoch: 1, Seq: 4}, nil)
	expect(t, "stale epoch is fenced", out, "ack/2>2 e2 s4 table")
	if counted(out, metrics.EpochRejects) != 1 {
		t.Error("fence not counted in EpochRejects")
	}
}

func TestHigherEpochAppendForcesResync(t *testing.T) {
	a := assign(1, 0, 1, 2)
	m := New(testConfig(2), a)
	for seq := uint64(1); seq <= 2; seq++ {
		follow(m, t0, a, m.Step(t0, a, Event{Kind: Append, From: 0, Epoch: 1, Seq: seq, Blob: []byte{1}}, nil))
	}
	// Server 1 was promoted from applied 1: this follower's seq 2 is history
	// the new primary never saw.
	a = assign(2, 1, 2)
	out := m.Step(t0, a, Event{Kind: Append, From: 1, Epoch: 2, Seq: 2, Base: 1, Blob: []byte{9}}, nil)
	expect(t, "divergent", out, "snap/0>1 e0 s0")
	if m.role != Joining || m.applied != 0 || len(m.ring) != 0 || m.epoch != 2 || len(m.tail) != 1 {
		t.Errorf("after resync: role %d applied %d ringLen %d epoch %d tail %d", m.role, m.applied, len(m.ring), m.epoch, len(m.tail))
	}
	expect(t, "joining buffers", m.Step(t0, a, Event{Kind: Append, From: 1, Epoch: 2, Seq: 3, Base: 1}, nil))
	out = follow(m, t0, a, m.Step(t0, a, Event{Kind: SnapFinal, From: 1, Epoch: 2, Seq: 1}, nil))
	expect(t, "final replays the tail and reports the watermark", out, "snap/3>1 e0 s3")
	if m.role != Follower || m.applied != 3 || m.ringStart != 2 || len(m.ring) != 2 {
		t.Errorf("after final: role %d applied %d ring [%d,+%d)", m.role, m.applied, m.ringStart, len(m.ring))
	}
	// A base at or past the follower's applied seq is a same-lineage bump.
	a = assign(3, 1, 2)
	expect(t, "same lineage", m.Step(t0, a, Event{Kind: Append, From: 1, Epoch: 3, Seq: 4, Base: 3}, nil), "apply s4")
}

func TestQuorum(t *testing.T) {
	rf3 := assign(1, 0, 1, 2)
	cases := []struct {
		name string
		a    route.Assignment // assignment at write time
		ev   Event
		now  time.Duration
		next route.Assignment // assignment the event arrives under
		want []string
	}{
		{"ack completes", rf3, Event{Kind: Ack, From: 2, Epoch: 1, Seq: 1}, 0, rf3, []string{"writeResp/0>9 e0 s0"}},
		{"older-epoch ack never votes", assign(2, 0, 1, 2), Event{Kind: Ack, From: 2, Epoch: 1, Seq: 1}, 0, assign(2, 0, 1, 2), nil},
		{"ack short of the write", rf3, Event{Kind: Ack, From: 2, Epoch: 1, Seq: 0}, 0, rf3, nil},
		{"snapshot-done counts as an ack", rf3, Event{Kind: SnapDone, From: 1, Seq: 1}, 0, rf3, []string{"writeResp/0>9 e0 s0"}},
		{"follower death shrinks the set", assign(1, 0, 1), Event{Kind: Assign}, 0, assign(2, 0), []string{"writeResp/0>9 e0 s0"}},
		{"a grown set does not raise the bar", assign(1, 0, 1), Event{Kind: Ack, From: 1, Epoch: 2, Seq: 1}, 0, assign(2, 0, 1, 2, 3), []string{"writeResp/0>9 e0 s0"}},
		{"times out otherwise", rf3, Event{Kind: Tick}, time.Second, rf3, []string{"writeResp/0>9 e0 s0 err"}},
		{"an undercut timer is ignored", rf3, Event{Kind: Tick}, time.Second / 4, rf3, nil},
	}
	for _, tc := range cases {
		m := New(testConfig(0), tc.a)
		out := m.Step(t0, tc.a, Event{Kind: Write, From: client, ReqID: 7, Blob: []byte{1}, Start: t0}, nil)
		if got := brief(out); len(got) != len(tc.a.Followers)+1 || got[len(got)-1] != "timer 1s" {
			t.Errorf("%s: write effects %q, want one append per follower and a timer", tc.name, got)
		}
		out = m.Step(t0.Add(tc.now), tc.next, tc.ev, nil)
		expect(t, tc.name, out, tc.want...)
		if done := len(tc.want) == 1 && strings.HasPrefix(tc.want[0], "writeResp"); done != (len(m.pending) == 0) {
			t.Errorf("%s: %d writes still pending", tc.name, len(m.pending))
		}
	}

	// Joiner publish: the handoff's snapshot-done proposes the joiner, and the
	// assignment that lands finishes the handoff and re-reaps.
	a := assign(1, 0, 1)
	m := primaryWith(a, 1)
	expect(t, "snapReq", m.Step(t0, a, Event{Kind: SnapReq, From: 2}, nil), "snapshot>2 s1")
	expect(t, "write reaches the joiner", m.Step(t0, a, Event{Kind: Write, From: client, ReqID: 2, Blob: []byte{2}, Start: t0}, nil),
		"append/0>1 e1 s2", "append/0>2 e1 s2")
	expect(t, "snapDone", m.Step(t0, a, Event{Kind: SnapDone, From: 2, Seq: 2}, nil), "propose e2 p0 f[1 2]")
	out := m.Step(t0, assign(2, 0, 1, 2), Event{Kind: Assign}, nil)
	expect(t, "publish", out, "writeResp/0>9 e0 s0", "writeResp/0>9 e0 s0")
	if len(m.joiners) != 0 || m.base != 2 || m.epoch != 2 || m.commit != 2 {
		t.Errorf("after publish: joiners %v base %d epoch %d commit %d", m.joiners, m.base, m.epoch, m.commit)
	}
}

func TestPromoteAndDemote(t *testing.T) {
	a := assign(1, 0, 1, 2)
	m := New(testConfig(1), a)
	for seq := uint64(1); seq <= 3; seq++ {
		follow(m, t0, a, m.Step(t0, a, Event{Kind: Append, From: 0, Epoch: 1, Seq: seq, Blob: []byte{byte(seq)}}, nil))
	}
	m.acked = map[int32]uint64{2: 9} // a leftover a promotion must not inherit
	a = assign(2, 1, 2)
	out := m.Step(t0, a, Event{Kind: Assign}, nil)
	if m.role != Primary || m.commit != 3 || m.base != 3 || m.epoch != 2 || len(m.acked) != 0 || m.lag != 0 || len(m.ring) != 3 {
		t.Errorf("promoted: role %d commit %d base %d epoch %d acked %v lag %d ringLen %d", m.role, m.commit, m.base, m.epoch, m.acked, m.lag, len(m.ring))
	}
	if counted(out, metrics.Promotions) != 1 {
		t.Errorf("promotion counted %d", counted(out, metrics.Promotions))
	}
	expect(t, "write", m.Step(t0, a, Event{Kind: Write, From: client, ReqID: 4, Blob: []byte{4}, Start: t0}, nil),
		"append/0>2 e2 s4", "timer 1s")

	out = m.Step(t0, assign(3, 2, 1), Event{Kind: Assign}, nil)
	expect(t, "demoted", out, "writeResp/0>9 e0 s0 err")
	if out[0].Err != ErrWrongEpoch.Error() {
		t.Errorf("demotion error %q", out[0].Err)
	}
	if m.role != Follower || len(m.pending)+len(m.acked) != 0 || m.epoch != 2 || len(m.ring) != 4 {
		t.Errorf("demoted: role %d pending %d acked %d epoch %d ringLen %d", m.role, len(m.pending), len(m.acked), m.epoch, len(m.ring))
	}
	out = m.Step(t0, assign(4, 2), Event{Kind: Assign}, nil)
	if m.role != None || m.applied != 0 || len(out) != 0 {
		t.Errorf("evicted: role %d applied %d effects %q", m.role, m.applied, brief(out))
	}
}

// TestCommitFloor pins the commit watermark: the need-th highest
// follower ack, capped at the primary's applied sequence, with a 1-replica
// set committing at the applied sequence directly.
func TestCommitFloor(t *testing.T) {
	m := &Machine{applied: 10, acked: map[int32]uint64{1: 7, 2: 4}}
	cases := []struct {
		name      string
		followers []int32
		want      uint64
	}{
		{"two followers", []int32{1, 2}, 7}, // quorum 2 of 3: the better follower ack
		{"one follower", []int32{1}, 7},     // quorum 2 of 2: the follower's ack
		{"no followers", nil, 10},           // the primary alone is the quorum
		{"silent follower", []int32{3}, 0},
		{"three followers", []int32{1, 2, 3}, 4}, // quorum 3 of 4: second-highest ack
	}
	for _, tc := range cases {
		if got := m.commitFloor(route.Assignment{Followers: tc.followers}); got != tc.want {
			t.Errorf("%s: commit floor = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A follower ack can run ahead of the primary's apply mid-handoff.
	ahead := &Machine{applied: 5, acked: map[int32]uint64{1: 9}}
	if got := ahead.commitFloor(route.Assignment{Followers: []int32{1}}); got != 5 {
		t.Errorf("floor with follower ahead = %d, want 5 (primary applied)", got)
	}
}

// TestSnapshotDataSource: only the assignment's primary — or, for a machine
// that asked for a stream, the server it asked — may write a replica's
// store through the snapshot path.
func TestSnapshotDataSource(t *testing.T) {
	a := assign(2, 1, 2)
	cases := []struct {
		name string
		ev   Event
		want []string
	}{
		{"chunk from a deposed primary", Event{Kind: SnapChunk, From: 0, Blob: []byte{1}}, nil},
		{"chunk from a client id", Event{Kind: SnapChunk, From: client, Blob: []byte{1}}, nil},
		{"chunk from the primary", Event{Kind: SnapChunk, From: 1, Blob: []byte{1}}, []string{"apply s0"}},
		{"final from a deposed primary", Event{Kind: SnapFinal, From: 0, Epoch: 5, Seq: 50}, nil},
		{"final from the primary", Event{Kind: SnapFinal, From: 1, Epoch: 2, Seq: 50}, []string{"snap/3>1 e0 s50"}},
		{"final with a trailing batch", Event{Kind: SnapFinal, From: 1, Epoch: 2, Seq: 50, Blob: []byte{1}}, []string{"apply s0", "snap/3>1 e0 s50"}},
	}
	for _, tc := range cases {
		m := New(testConfig(2), a)
		out := m.Step(t0, a, tc.ev, nil)
		expect(t, tc.name, out, tc.want...)
		if rejected := counted(out, metrics.EpochRejects) == 1; rejected != (tc.want == nil) {
			t.Errorf("%s: EpochRejects counted %d", tc.name, counted(out, metrics.EpochRejects))
		}
		if tc.want == nil && (m.applied != 0 || m.epoch != 2) {
			t.Errorf("%s: state moved to applied %d epoch %d", tc.name, m.applied, m.epoch)
		}
	}

	// A resync ahead of the gossip: server 1's epoch-3 append reaches this
	// follower while its own table still names server 0 primary (gossip is
	// one-shot and can be late or lost). The stream it then asks server 1 for
	// must be taken from server 1, under the stale table and the fresh one,
	// and from nobody else — least of all the primary the stale table names.
	stale, fresh := assign(2, 0, 1, 2), assign(3, 1, 2)
	m := New(testConfig(2), stale)
	for seq := uint64(1); seq <= 2; seq++ {
		follow(m, t0, stale, m.Step(t0, stale, Event{Kind: Append, From: 0, Epoch: 2, Seq: seq, Blob: []byte{1}}, nil))
	}
	expect(t, "divergent append before the gossip", m.Step(t0, stale, Event{Kind: Append, From: 1, Epoch: 3, Seq: 2, Base: 1, Blob: []byte{9}}, nil), "snap/0>1 e0 s0")
	expect(t, "chunk from the asked server, stale table", m.Step(t0, stale, Event{Kind: SnapChunk, From: 1, Blob: []byte{1}}, nil), "apply s0")
	out := m.Step(t0, stale, Event{Kind: SnapChunk, From: 0, Blob: []byte{1}}, nil)
	expect(t, "chunk from the stale table's primary", out)
	if counted(out, metrics.EpochRejects) != 1 {
		t.Error("chunk from a server the joiner never asked was not counted")
	}
	expect(t, "chunk from the asked server, fresh table", m.Step(t0, fresh, Event{Kind: SnapChunk, From: 1, Blob: []byte{1}}, nil), "apply s0")
	out = follow(m, t0, fresh, m.Step(t0, fresh, Event{Kind: SnapFinal, From: 1, Epoch: 3, Seq: 1}, nil))
	expect(t, "final from the asked server", out, "snap/3>1 e0 s2")
	if m.role != Follower || m.applied != 2 || m.epoch != 3 {
		t.Errorf("after the stream: role %d applied %d epoch %d", m.role, m.applied, m.epoch)
	}
	// The final can beat the gossip too.
	m = New(testConfig(2), stale)
	follow(m, t0, stale, m.Step(t0, stale, Event{Kind: Append, From: 0, Epoch: 2, Seq: 1, Blob: []byte{1}}, nil))
	m.Step(t0, stale, Event{Kind: Append, From: 1, Epoch: 3, Seq: 1, Base: 0, Blob: []byte{9}}, nil)
	out = follow(m, t0, stale, m.Step(t0, stale, Event{Kind: SnapFinal, From: 1, Epoch: 3, Seq: 0}, nil))
	expect(t, "final before the gossip", out, "snap/3>1 e0 s1")
	if m.role != Follower {
		t.Errorf("role %d after a final that beat the gossip, want follower", m.role)
	}
}

// TestNakRepair: a gap the ring covers is re-shipped and starts no stream;
// one it does not yields exactly one Snapshot effect and no re-ship — the
// effect a join request yields, run off the handler by whoever executes
// effects. Unlike a join request it registers no joiner: the follower is in
// the replica set and is shipped the live appends already.
func TestNakRepair(t *testing.T) {
	a := assign(1, 0, 1)
	m := primaryWith(a, RingCap+10)
	if m.ringStart != 11 || len(m.ring) != RingCap {
		t.Fatalf("ring [%d,+%d)", m.ringStart, len(m.ring))
	}
	last := uint64(RingCap + 10)
	expect(t, "inside the ring", m.Step(t0, a, Event{Kind: Nak, From: 1, Seq: last - 2}, nil),
		fmt.Sprintf("append/0>1 e1 s%d", last-1), fmt.Sprintf("append/0>1 e1 s%d", last))
	expect(t, "ahead of the primary", m.Step(t0, a, Event{Kind: Nak, From: 1, Seq: last}, nil))
	out := m.Step(t0, a, Event{Kind: Nak, From: 1, Seq: 3}, nil)
	expect(t, "below ringStart", out, fmt.Sprintf("snapshot>1 s%d", last))
	if len(out) != 1 || len(m.joiners) != 0 {
		t.Errorf("a repair stream journaled or registered a joiner: %d effects, joiners %v", len(out), m.joiners)
	}
	m.Step(t0, a, Event{Kind: SnapDone, From: 1, Seq: last}, nil)
	if m.acked[1] != last || len(m.pending) != 0 {
		t.Errorf("after snapDone: acked %d pending %d", m.acked[1], len(m.pending))
	}
	expect(t, "a follower naks nothing", New(testConfig(1), a).Step(t0, a, Event{Kind: Nak, From: 2, Seq: 0}, nil))
}

func TestFailover(t *testing.T) {
	a := assign(4, 0, 1, 2)
	suspect := map[int32]bool{0: true}
	cfg := testConfig(1)
	cfg.Live = func(s int32) bool { return !suspect[s] }
	m := New(cfg, a)
	m.applied = 5
	expect(t, "driver polls", m.Step(t0, a, Event{Kind: PeerDown, From: 0}, nil), "ack/3>2 e0 s0", "timer 100ms")
	m.Step(t0, a, Event{Kind: SeqInfo, From: 2, Seq: 8}, nil)
	expect(t, "most caught-up wins", m.Step(t0.Add(100*time.Millisecond), a, Event{Kind: Tick}, nil), "propose e5 p2 f[1]")

	cfg.Self = 2
	expect(t, "outranked follower waits", New(cfg, a).Step(t0, a, Event{Kind: PeerDown, From: 0}, nil))
	suspect[1] = true
	expect(t, "sole live follower promotes itself", New(cfg, a).Step(t0, a, Event{Kind: PeerDown, From: 0}, nil), "propose e5 p2 f[]")
	expect(t, "seq query", New(cfg, a).Step(t0, a, Event{Kind: SeqQuery, From: 1}, nil), "ack/4>1 e0 s0")

	cfg.Self = 0
	p := New(cfg, a)
	expect(t, "primary shrinks", p.Step(t0, a, Event{Kind: PeerDown, From: 1}, nil), "propose e5 p0 f[2]")
	shrunk := assign(5, 0)
	out := p.Step(t0, shrunk, Event{Kind: PeerUp, From: 1}, nil)
	expect(t, "recovered peer is nudged", out, "snap/4>1 e0 s0 table")
	if counted(out, metrics.RejoinNudges) != 1 {
		t.Error("nudge not counted")
	}
	expect(t, "factor already restored", p.Step(t0, assign(6, 0, 2), Event{Kind: PeerUp, From: 1}, nil))
	expect(t, "nudged server joins", New(testConfig(1), shrunk).Step(t0, shrunk, Event{Kind: Join}, nil), "snap/0>0 e0 s0")
}

func TestStatusAndReadiness(t *testing.T) {
	a := assign(1, 0, 1)
	m := primaryWith(a, 2)
	m.Step(t0, a, Event{Kind: Ack, From: 1, Epoch: 1, Seq: 1}, nil)
	ps, ok := m.Status(t0.Add(time.Second), a)
	if !ok || ps.Role != "primary" || ps.AppliedSeq != 2 || ps.AckedSeq != 1 || ps.CommitSeq != 1 || ps.LagEntries != 1 || ps.LagBytes != 1 || ps.LagAgeNs != int64(time.Second) {
		t.Errorf("primary status %+v", ps)
	}
	if r := m.Unready(a, nil); r != nil {
		t.Errorf("healthy primary unready: %v", r)
	}
	m.cfg.Live = func(int32) bool { return false }
	m.Step(t0, a, Event{Kind: SnapReq, From: 2}, nil)
	if r := m.Unready(a, nil); len(r) != 2 {
		t.Errorf("below quorum with a handoff in flight: %v", r)
	}
	j := New(testConfig(2), a)
	if _, ok := j.Status(t0, a); ok {
		t.Error("a server with no role reported a status row")
	}
	j.Step(t0, a, Event{Kind: Join}, nil)
	if ps, ok := j.Status(t0, a); !ok || !ps.Joining || ps.Role != "follower" || len(j.Unready(a, nil)) != 1 {
		t.Errorf("joiner status %+v unready %v", ps, j.Unready(a, nil))
	}
	// A joiner outlives assignment changes that keep its streamer or keep it
	// a member, and is dropped when it is neither.
	j.Step(t0, assign(2, 0), Event{Kind: Assign}, nil)
	if j.role != Joining {
		t.Errorf("joiner role %d after a same-primary bump", j.role)
	}
	j.Step(t0, assign(3, 1, 2), Event{Kind: Assign}, nil)
	if j.role != Joining {
		t.Errorf("member joiner role %d after its streamer was deposed", j.role)
	}
	j.Step(t0, assign(4, 1), Event{Kind: Assign}, nil)
	if j.role != None {
		t.Errorf("non-member joiner role %d after its streamer was deposed", j.role)
	}
}

// TestPurity enforces what makes the package a state machine: no engine,
// transport, scheduler or sync import, no wall clock, no timers, no
// goroutines.
func TestPurity(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				switch path, _ := strconv.Unquote(imp.Path.Value); path {
				case "sync", "sync/atomic", "graphtrek/internal/core", "graphtrek/internal/rpc", "graphtrek/internal/sched":
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", name)
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && (n.Sel.Name == "Now" || n.Sel.Name == "AfterFunc" || n.Sel.Name == "Since") {
						t.Errorf("%s: time.%s", name, n.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
