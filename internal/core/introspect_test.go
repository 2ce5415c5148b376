package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphtrek/internal/events"
	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/simio"
	"graphtrek/internal/status"
	"graphtrek/internal/trace"
	"graphtrek/internal/wire"
)

// TestStressIntrospectionFailoverJournalAndStatus is the chaos end-to-end
// for the cluster-health surface: a primary is crash-stopped, and the whole
// failover story must then be reconstructable from the outside exactly the
// way an operator would see it — the merged wire-pulled event journal (gtq
// -events) shows the suspicion and the promotion fenced at the epoch the
// route table publishes, every surviving server answers a journal and a
// status pull, the promoted primary's status document shows the new role
// with a committed, lag-free log covering a post-failover write, the
// follower-shrink reconfiguration that restores survivor readiness is
// journaled as an epoch bump, and the whole cluster reports ready again
// when the crashed server rejoins.
func TestStressIntrospectionFailoverJournalAndStatus(t *testing.T) {
	const (
		n            = 3
		hb           = 100 * time.Millisecond
		suspectAfter = 3 * hb
	)
	c, chaos, views := newReplCluster(t, n, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = hb
		cfg.SuspectAfter = suspectAfter
		cfg.Disk = simio.NewDisk(time.Millisecond, 2)
		cfg.Workers = 2
	})
	writeAuditGraph(t, c)
	clientView := views[n]
	// Identity boot table: partition p is primaried by server p with server
	// (p+1)%n as its follower; anchor on the partition holding vertex 1.
	p0 := clientView.Partition(1)
	victim := p0
	promotee := (p0 + 1) % n
	coord := (p0 + 2) % n

	// A healthy replicated cluster is ready everywhere, and quiet: no
	// control-plane events beyond what boot itself may have logged.
	for i := 0; i < n; i++ {
		if r := c.servers[i].Ready(); !r.Ready {
			t.Fatalf("server %d unready before the crash: %v", i, r.Reasons)
		}
	}

	chaos[victim].Crash()
	pollUntil(t, 10*time.Second, "follower promotion", func() bool {
		return c.servers[promotee].Metrics().Promotions >= 1
	})
	pollUntil(t, 5*time.Second, "route convergence", func() bool {
		return clientView.Assignment(p0).Primary == int32(promotee)
	})
	epoch := clientView.Assignment(p0).Epoch

	// Quorum writes resume against the promoted primary; the write below is
	// what the status document must show as applied AND committed.
	newID := findFreeID(clientView, p0, 1000)
	if err := c.client.Write([]gstore.Mutation{
		{Op: gstore.OpPutVertex, Vertex: model.Vertex{ID: newID, Label: "Marker"}},
	}, WriteOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}

	// Every surviving server must answer the merged journal and status pulls
	// (gtq -events and -status), so a missing event below cannot be a
	// missing journal — and the merged, time-sorted timeline must hold the
	// suspicion of the victim and the epoch-fenced promotion.
	var survivors, everyone []int
	for i := 0; i < n; i++ {
		if i != victim {
			survivors = append(survivors, i)
		}
		everyone = append(everyone, i)
	}
	evs, from, err := c.client.ClusterEvents(10 * time.Second)
	if err != nil {
		t.Fatalf("merged journal pull: %v", err)
	}
	if !reflect.DeepEqual(from, survivors) {
		t.Errorf("journal pull answered by servers %v, want every survivor %v", from, survivors)
	}
	sts, err := c.client.ClusterStatus(5 * time.Second)
	if err != nil {
		t.Fatalf("merged status pull: %v", err)
	}
	var answered []int
	for _, st := range sts {
		answered = append(answered, st.Server)
	}
	if !reflect.DeepEqual(answered, survivors) {
		t.Errorf("status pull answered by servers %v, want every survivor %v", answered, survivors)
	}
	var sawSuspicion, sawPromotion bool
	for i, e := range evs {
		if i > 0 && e.TimeUnixNano < evs[i-1].TimeUnixNano {
			t.Fatalf("merged timeline out of order at %d: %d after %d", i, e.TimeUnixNano, evs[i-1].TimeUnixNano)
		}
		if e.Type == events.SuspicionUp && e.Peer == victim {
			sawSuspicion = true
		}
		if e.Type == events.Promotion && e.Part == p0 && e.Server == promotee && e.Epoch == epoch {
			sawPromotion = true
		}
	}
	if !sawSuspicion {
		t.Errorf("no suspicion_up event for crashed server %d in %d merged events", victim, len(evs))
	}
	if !sawPromotion {
		t.Errorf("no promotion event for partition %d by server %d at epoch %d in %d merged events", p0, promotee, epoch, len(evs))
	}

	// The promoted primary's status document must agree with the journal:
	// role primary at the promotion epoch, the post-failover write applied,
	// committed, and lag-free. Commit acknowledgment is asynchronous to the
	// client ack, so poll.
	pollUntil(t, 10*time.Second, "promoted primary status row", func() bool {
		sts, err := c.client.ClusterStatus(5 * time.Second)
		if err != nil {
			return false
		}
		for _, st := range sts {
			if st.Server != promotee {
				continue
			}
			for _, p := range st.Partitions {
				if p.Part == p0 {
					return p.Role == "primary" && p.Epoch == epoch &&
						p.AppliedSeq >= 1 && p.CommitSeq == p.AppliedSeq && p.LagEntries == 0
				}
			}
		}
		return false
	})

	// Readiness: with a 3-server majority the cluster self-heals — the
	// partition that had the victim as its follower shrinks its replica set
	// under a fresh epoch (visible as an epoch_bump in the journal), so its
	// primary returns to ready even while the victim is still down. The
	// durable below-quorum unready state needs the majority guard; see
	// TestStressReadinessQuorumLoss.
	var sawShrink bool
	for _, e := range evs {
		if e.Type == events.EpochBump && e.Part == coord && e.Server == coord {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Errorf("no epoch_bump event for the follower-shrink of partition %d in %d merged events", coord, len(evs))
	}
	pollUntil(t, 10*time.Second, "survivor readiness while victim is down", func() bool {
		for i := 0; i < n; i++ {
			if i == victim {
				continue
			}
			if !c.servers[i].Ready().Ready {
				return false
			}
		}
		return true
	})

	// Revive the victim: the failure detector clears the suspicion, rejoin
	// nudges invite it back, and once the replica sets are whole again every
	// server must report ready. The nudge itself must land in the journal.
	chaos[victim].Revive()
	pollUntil(t, 20*time.Second, "cluster-wide readiness after rejoin", func() bool {
		for i := 0; i < n; i++ {
			if !c.servers[i].Ready().Ready {
				return false
			}
		}
		return true
	})
	evs, from, err = c.client.ClusterEvents(10 * time.Second)
	if err != nil {
		t.Fatalf("merged journal pull after rejoin: %v", err)
	}
	if !reflect.DeepEqual(from, everyone) {
		t.Errorf("journal pull after rejoin answered by servers %v, want all of %v", from, everyone)
	}
	var sawDown, sawNudge bool
	for _, e := range evs {
		if e.Type == events.SuspicionDown && e.Peer == victim {
			sawDown = true
		}
		if e.Type == events.RejoinNudge && e.Peer == victim {
			sawNudge = true
		}
	}
	if !sawDown {
		t.Errorf("no suspicion_down event for revived server %d in %d merged events", victim, len(evs))
	}
	if !sawNudge {
		t.Errorf("no rejoin_nudge event for revived server %d in %d merged events", victim, len(evs))
	}
}

// TestStressReadinessQuorumLoss pins the durable unready state behind
// /readyz. A 2-server cluster sits below the majority-guard threshold, so
// a crashed peer cannot be reconfigured away: the survivor keeps a
// primaried partition below write quorum and must report unready with a
// below-quorum reason until the peer comes back — the durability contract
// (can this server meet quorum?) as distinct from liveness (is it up?).
func TestStressReadinessQuorumLoss(t *testing.T) {
	const (
		n            = 2
		hb           = 100 * time.Millisecond
		suspectAfter = 3 * hb
	)
	c, chaos, _ := newReplCluster(t, n, 2, func(cfg *Config) {
		cfg.HeartbeatInterval = hb
		cfg.SuspectAfter = suspectAfter
		cfg.Disk = simio.NewDisk(time.Millisecond, 2)
		cfg.Workers = 2
	})
	for i := 0; i < n; i++ {
		if r := c.servers[i].Ready(); !r.Ready {
			t.Fatalf("server %d unready before the crash: %v", i, r.Reasons)
		}
	}

	chaos[1].Crash()
	pollUntil(t, 10*time.Second, "below-quorum unreadiness", func() bool {
		r := c.servers[0].Ready()
		if r.Ready {
			return false
		}
		for _, reason := range r.Reasons {
			if strings.Contains(reason, "below quorum") {
				return true
			}
		}
		return false
	})

	// No reconfiguration may have slipped through the majority guard: the
	// replica set (and its epoch) must be exactly what boot published.
	for p := 0; p < n; p++ {
		if e := c.servers[0].cfg.Route.Assignment(p).Epoch; e != 1 {
			t.Errorf("partition %d epoch %d: the majority guard should have blocked reconfiguration", p, e)
		}
	}

	chaos[1].Revive()
	pollUntil(t, 20*time.Second, "readiness after the peer returns", func() bool {
		for i := 0; i < n; i++ {
			if !c.servers[i].Ready().Ready {
				return false
			}
		}
		return true
	})
}

// TestIntrospectRoundTrip covers the one pull message end to end: each of
// the three documents comes back decodable and agrees with the server's
// in-process view, and a document code the server does not know is answered
// with an error at once rather than dropped (the caller would otherwise
// burn its whole timeout).
func TestIntrospectRoundTrip(t *testing.T) {
	c := newCluster(t, 2, nil)
	loadAuditGraph(t, c)
	h, err := c.client.SubmitPlanAsync(mustPlan(t, query.V(1, 2).E("run").E("read")), SubmitOptions{Mode: ModeGraphTrek})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	calls := &c.client.calls
	for srv, s := range c.servers {
		dump, err := pull[trace.SpanDump](calls, srv, wire.IntrospectSpans, h.TravelID(), pullDeadline(0))
		if err != nil {
			t.Fatalf("span pull from server %d: %v", srv, err)
		}
		want := s.SpanDump(h.TravelID())
		if int(dump.Server) != srv || !reflect.DeepEqual(dump.Spans, want.Spans) ||
			len(dump.Summaries) != len(want.Summaries) || len(want.Summaries) == 1 && dump.Summaries[0] != want.Summaries[0] {
			t.Errorf("server %d: pulled dump (server %d, %d spans, %d summaries) != local dump (%d spans, %d summaries)",
				srv, dump.Server, len(dump.Spans), len(dump.Summaries), len(want.Spans), len(want.Summaries))
		}
		if (len(dump.Summaries) == 1) != (srv == h.Coordinator()) {
			t.Errorf("server %d: %d summaries, coordinator is %d", srv, len(dump.Summaries), h.Coordinator())
		}
		s.journal.Record(events.Event{Type: events.SlowTravel, Part: -1, Peer: -1, Detail: "marker"})
		evs, err := pull[[]events.Event](calls, srv, wire.IntrospectEvents, 0, pullDeadline(0))
		if err != nil || len(evs) != 1 || evs[0].Detail != "marker" || evs[0].Server != srv {
			t.Errorf("events pull from server %d: %+v, %v", srv, evs, err)
		}
		st, err := pull[status.Server](calls, srv, wire.IntrospectStatus, 0, pullDeadline(0))
		if err != nil || st.Server != srv || !st.Ready {
			t.Errorf("status pull from server %d: %+v, %v", srv, st, err)
		}

		start := time.Now()
		_, err = pull[json.RawMessage](calls, srv, 99, 0, start.Add(10*time.Second))
		if err == nil || !strings.Contains(err.Error(), "unknown introspection kind 99") {
			t.Errorf("unknown document code on server %d: err = %v", srv, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("unknown document code took %v: dropped, not answered", took)
		}
	}
	// The merged pulls go through the same message.
	if evs, from, err := c.client.ClusterEvents(0); err != nil || len(evs) != len(c.servers) || len(from) != len(c.servers) {
		t.Errorf("merged events: %d entries from servers %v, %v", len(evs), from, err)
	}
	if sts, err := c.client.ClusterStatus(0); err != nil || len(sts) != len(c.servers) {
		t.Errorf("merged status: %d documents, %v", len(sts), err)
	}
}

// TestServerCallFailsAtShutdown pins the other half of the silence fix: a
// call a server has in flight when it closes returns "server closing"
// instead of waiting out its timer.
func TestServerCallFailsAtShutdown(t *testing.T) {
	c := newCluster(t, 2, nil)
	s := c.servers[0]
	// Node 2 is the client slot; it never answers an introspection request.
	errc := make(chan error, 1)
	go func() {
		_, err := pull[trace.SpanDump](&s.calls, 2, wire.IntrospectSpans, 1, time.Now().Add(30*time.Second))
		errc <- err
	}()
	pollUntil(t, 5*time.Second, "the call to register", func() bool {
		s.calls.mu.Lock()
		defer s.calls.mu.Unlock()
		return len(s.calls.waiting) == 1
	})
	s.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "server closing") {
			t.Errorf("in-flight call at shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call outlived server shutdown")
	}
}
