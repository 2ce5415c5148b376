package core

import (
	"strings"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/wire"
)

// newDeafPair is a two-server cluster whose server 1 drops every message it
// is sent, so it never speaks either. Heartbeats and the travel timeout are
// an hour apart, so the control loop never ticks on its own: the test calls
// tick with the time it wants.
func newDeafPair(t *testing.T, suspectAfter time.Duration) *cluster {
	t.Helper()
	c, _ := newChaosCluster(t, 2, func(id int) rpc.ChaosConfig {
		if id == 1 {
			return rpc.ChaosConfig{DropIn: func(int, wire.Message) bool { return true }}
		}
		return rpc.ChaosConfig{}
	}, func(cfg *Config) {
		cfg.HeartbeatInterval = time.Hour
		cfg.TravelTimeout = time.Hour
		cfg.SuspectAfter = suspectAfter
	})
	return c
}

// startStuckTravel has server 0 coordinate an id-seeded traversal whose one
// root execution is on the deaf server 1, and returns its ledger. Handle
// runs the coordinator's start in place, so the ledger is settled on return.
func startStuckTravel(t *testing.T, c *cluster, travel uint64) *ledger {
	t.Helper()
	var seed model.VertexID
	for c.part.Owner(seed) != 1 {
		seed++
	}
	client := len(c.servers)
	c.servers[0].Handle(client, wire.Message{
		Kind: wire.KindStartTravel, TravelID: travel, Mode: uint8(ModeGraphTrek),
		Coord: int32(client), Plan: mustPlan(t, query.V(seed).E("run")).Encode(),
	})
	led := coordinating(c.servers[0], travel)
	if led == nil {
		t.Fatal("server 0 did not start coordinating the traversal")
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	if led.liveByServer[1] != 1 || led.liveTotal != 1 {
		t.Fatalf("live executions: %v (total %d), want one on server 1", led.liveByServer, led.liveTotal)
	}
	return led
}

// coordinating returns the ledger of a traversal s still coordinates.
func coordinating(s *Server, travel uint64) *ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgers[travel]
}

// TestControlTick drives a server's control loop by hand: each timed
// decision happens exactly when tick's clock passes its bound, and never
// before.
func TestControlTick(t *testing.T) {
	const eps = time.Second
	t.Run("inactivity", func(t *testing.T) {
		c := newDeafPair(t, 0)
		s := c.servers[0]
		led := startStuckTravel(t, c, 1)
		led.mu.Lock()
		t0 := led.activity
		led.mu.Unlock()

		s.tick(t0.Add(s.cfg.TravelTimeout - eps))
		if coordinating(s, 1) == nil {
			t.Fatal("traversal failed before its ledger was inactive for TravelTimeout")
		}
		s.tick(t0.Add(s.cfg.TravelTimeout + eps))
		if coordinating(s, 1) != nil {
			t.Fatal("traversal still pending after TravelTimeout of inactivity")
		}
		if sums := s.SpanDump(1).Summaries; len(sums) != 1 || sums[0].Err != inactivityError {
			t.Errorf("traversal summaries %+v, want one failed with the inactivity error", sums)
		}
	})

	t.Run("suspicion", func(t *testing.T) {
		const suspectAfter = 10 * time.Minute
		c := newDeafPair(t, suspectAfter)
		s := c.servers[0]
		startStuckTravel(t, c, 2)
		t0 := time.Unix(0, s.lastSeen[1].Load())

		s.tick(t0.Add(suspectAfter - eps))
		if s.isSuspect(1) || coordinating(s, 2) == nil {
			t.Fatal("server 1 suspected, or its traversal failed, before SuspectAfter of silence")
		}
		s.tick(t0.Add(suspectAfter + eps))
		if !s.isSuspect(1) {
			t.Fatal("server 1 not suspected after SuspectAfter of silence")
		}
		if coordinating(s, 2) != nil {
			t.Fatal("traversal with live work on the suspect still pending")
		}
		if sums := s.SpanDump(2).Summaries; len(sums) != 1 || sums[0].Err != peerDeadError(1) {
			t.Errorf("traversal summaries %+v, want one failed with the peer-dead error", sums)
		}
		if ev := s.Events(); len(ev) == 0 || !strings.Contains(ev[len(ev)-1].Detail, "missed heartbeats") {
			t.Errorf("journal does not end with the local suspicion: %+v", ev)
		}
	})

	t.Run("after holds Close", func(t *testing.T) {
		c := newDeafPair(t, 0)
		s := c.servers[0]
		started, release := make(chan struct{}), make(chan struct{})
		s.after(0, func() {
			close(started)
			<-release
		})
		<-started
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		<-s.stop // Close has begun
		select {
		case <-closed:
			t.Fatal("Close returned while an after callback was running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		if s.enter() {
			t.Error("a goroutine or callback could still start after Close")
		}
	})
}
