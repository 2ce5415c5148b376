package rpc

import (
	"testing"
	"time"

	"graphtrek/internal/wire"
)

// chaosPair wires node 0's sends through a fault injector on a 2-node
// fabric and returns the injector plus node 1's collector.
func chaosPair(t *testing.T, cfg ChaosConfig) (*Chaos, *collector) {
	t.Helper()
	f := NewFabric(2)
	var c collector
	if err := f.Endpoint(1).Start(c.handle); err != nil {
		t.Fatal(err)
	}
	ch := NewChaos(f.Endpoint(0), cfg)
	t.Cleanup(func() {
		ch.Close()
		f.Close()
	})
	return ch, &c
}

func TestChaosPassThrough(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 1})
	for i := 0; i < 50; i++ {
		if err := ch.Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.len() == 50 })
	if s := ch.Stats(); s.Sent != 50 || s.Dropped != 0 || s.Duplicated != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestChaosDropAll(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 1, DropProb: 1})
	for i := 0; i < 20; i++ {
		if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if c.len() != 0 {
		t.Errorf("delivered %d messages through DropProb=1", c.len())
	}
	if s := ch.Stats(); s.Dropped != 20 {
		t.Errorf("Dropped = %d, want 20", s.Dropped)
	}
}

func TestChaosDuplicateAll(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 1, DupProb: 1, MaxDelay: time.Millisecond})
	const n = 25
	for i := 0; i < n; i++ {
		if err := ch.Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.len() == 2*n })
	if s := ch.Stats(); s.Duplicated != n {
		t.Errorf("Duplicated = %d, want %d", s.Duplicated, n)
	}
}

// TestChaosDelayPreservesFIFO is the property the engines' completion
// argument depends on: even with every message delayed by a random amount,
// per-pair delivery order matches send order.
func TestChaosDelayPreservesFIFO(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 99, DelayProb: 1, MaxDelay: 2 * time.Millisecond})
	const n = 100
	for i := 0; i < n; i++ {
		if err := ch.Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.len() == n })
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.msgs {
		if m.TravelID != uint64(i) {
			t.Fatalf("message %d has id %d: delay broke per-pair FIFO", i, m.TravelID)
		}
	}
}

// TestChaosDeterministicReplay: the same seed over the same send sequence
// injects the same faults — the property that makes chaos failures
// reproducible.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() ChaosStats {
		ch, c := chaosPair(t, ChaosConfig{
			Seed: 1234, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3, MaxDelay: time.Millisecond,
		})
		const n = 200
		for i := 0; i < n; i++ {
			if err := ch.Send(1, wire.Message{Kind: wire.KindResult, TravelID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s := ch.Stats()
		expect := int(s.Sent - s.Dropped + s.Duplicated)
		waitFor(t, func() bool { return c.len() == expect })
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestChaosCrashStop(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 1})
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
	ch.Crash()
	// A dead node's sends vanish without error, and its inbound side (the
	// wrapped handler) discards everything.
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Errorf("crashed send should not error, got %v", err)
	}
	var in collector
	h := ch.WrapHandler(in.handle)
	h(1, wire.Message{Kind: wire.KindResult})
	time.Sleep(10 * time.Millisecond)
	if c.len() != 1 || in.len() != 0 {
		t.Errorf("crash leaked messages: out=%d in=%d", c.len(), in.len())
	}
	if s := ch.Stats(); s.CrashDiscarded != 1 {
		t.Errorf("CrashDiscarded = %d, want 1", s.CrashDiscarded)
	}
	ch.Revive()
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Fatal(err)
	}
	h(1, wire.Message{Kind: wire.KindResult})
	waitFor(t, func() bool { return c.len() == 2 && in.len() == 1 })
}

func TestChaosIsolateHeal(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{Seed: 1})
	ch.Isolate(1)
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Fatal(err)
	}
	var in collector
	h := ch.WrapHandler(in.handle)
	h(1, wire.Message{Kind: wire.KindResult})
	time.Sleep(10 * time.Millisecond)
	if c.len() != 0 || in.len() != 0 {
		t.Errorf("isolated link leaked: out=%d in=%d", c.len(), in.len())
	}
	ch.Heal(1)
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Fatal(err)
	}
	h(1, wire.Message{Kind: wire.KindResult})
	waitFor(t, func() bool { return c.len() == 1 && in.len() == 1 })
}

func TestChaosTargetedDrop(t *testing.T) {
	ch, c := chaosPair(t, ChaosConfig{
		Seed:    1,
		DropOut: func(_ int, msg wire.Message) bool { return msg.Kind == wire.KindExecEvents },
	})
	if err := ch.Send(1, wire.Message{Kind: wire.KindExecEvents}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(1, wire.Message{Kind: wire.KindResult}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.len() == 1 })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msgs[0].Kind != wire.KindResult {
		t.Errorf("wrong message survived: %v", c.msgs[0].Kind)
	}
}
