package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
	"graphtrek/internal/wire"
)

func newTestLedger() *ledger {
	return &ledger{
		servers:      4,
		touched:      make([]bool, 4),
		execs:        make(map[uint64]*execInfo),
		liveByStep:   make(map[int32]int),
		liveByServer: make(map[int32]int),
	}
}

func (l *ledger) quiescentLocked() bool {
	return l.rootsSent && l.unmatchedEnds == 0 && l.liveTotal == 0
}

func TestLedgerCreateThenEnd(t *testing.T) {
	l := newTestLedger()
	l.rootsSent = true
	l.registerCreatedLocked(wire.ExecRef{ID: 1, Server: 0, Step: 0})
	if l.quiescentLocked() {
		t.Fatal("live execution should block completion")
	}
	if l.liveByStep[0] != 1 || l.liveTotal != 1 {
		t.Fatalf("live accounting: %v total %d", l.liveByStep, l.liveTotal)
	}
	l.registerEndedLocked(1)
	if !l.quiescentLocked() {
		t.Fatal("matched create+end should complete")
	}
	if l.liveByStep[0] != 0 || l.liveTotal != 0 {
		t.Fatalf("live accounting after end: %v total %d", l.liveByStep, l.liveTotal)
	}
}

func TestLedgerEndBeforeCreate(t *testing.T) {
	// The termination report can overtake the registration on another
	// link (§IV-C); the ledger must not declare completion in between.
	l := newTestLedger()
	l.rootsSent = true
	l.registerCreatedLocked(wire.ExecRef{ID: 1, Server: 0, Step: 0})

	// Exec 2's end arrives before its creation.
	l.registerEndedLocked(2)
	if l.unmatchedEnds != 1 {
		t.Fatalf("unmatchedEnds = %d", l.unmatchedEnds)
	}
	l.registerEndedLocked(1)
	if l.quiescentLocked() {
		t.Fatal("unmatched end must block completion")
	}
	l.registerCreatedLocked(wire.ExecRef{ID: 2, Server: 1, Step: 1})
	if !l.quiescentLocked() {
		t.Fatal("matching the early end should complete the traversal")
	}
	// Exec 2 was never live, yet its server holds the traversal's state
	// and must be released with it.
	if !l.touched[0] || !l.touched[1] || l.touched[2] {
		t.Fatalf("touched = %v, want servers 0 and 1", l.touched)
	}
	if l.liveTotal != 0 || l.unmatchedEnds != 0 {
		t.Fatalf("final accounting: live %d unmatched %d", l.liveTotal, l.unmatchedEnds)
	}
}

func TestLedgerDuplicateEventsIdempotent(t *testing.T) {
	l := newTestLedger()
	l.rootsSent = true
	ref := wire.ExecRef{ID: 7, Server: 0, Step: 2}
	l.registerCreatedLocked(ref)
	l.registerCreatedLocked(ref)
	if l.liveTotal != 1 {
		t.Fatalf("duplicate create counted: %d", l.liveTotal)
	}
	l.registerEndedLocked(7)
	l.registerEndedLocked(7)
	if l.liveTotal != 0 || l.unmatchedEnds != 0 {
		t.Fatalf("duplicate end mis-counted: live %d unmatched %d", l.liveTotal, l.unmatchedEnds)
	}
	if !l.quiescentLocked() {
		t.Fatal("should be quiescent")
	}
}

// TestLedgerResultsSortedAndUnique reports 96 vertices twice, 48 of them in
// both reports, each report in a shuffled order: the client must receive
// the 144 distinct ids once each, ascending, in one KindResult.
func TestLedgerResultsSortedAndUnique(t *testing.T) {
	const travel = 77
	log := &sendLog{}
	c := newWrappedCluster(t, 1, nil, func(_ int, tr rpc.Transport) rpc.Transport { return loggingTransport{tr, log} })
	s := c.servers[0]
	led := newTestLedger()
	led.travel, led.client, led.servers, led.rootsSent = travel, 1, 1, true
	s.mu.Lock()
	s.ledgers[travel] = led
	s.mu.Unlock()
	r := rand.New(rand.NewSource(5))
	report := func(lo int, msg wire.Message) {
		msg.Kind, msg.TravelID = wire.KindExecEvents, travel
		for _, i := range r.Perm(96) {
			msg.Verts = append(msg.Verts, model.VertexID(lo+i))
		}
		s.handleCoordinator(msg)
	}
	report(0, wire.Message{Created: []wire.ExecRef{{ID: 1, Server: 0, Step: 0}}})
	report(48, wire.Message{Ended: []uint64{1}})

	log.mu.Lock()
	defer log.mu.Unlock()
	var got [][]model.VertexID
	for _, ls := range log.sent {
		if ls.to == 1 && ls.msg.Kind == wire.KindResult {
			got = append(got, ls.msg.Verts)
		}
	}
	if len(got) != 1 || len(got[0]) != 144 {
		t.Fatalf("client received %d result messages (%v), want one of 144 ids", len(got), got)
	}
	for i, v := range got[0] {
		if v != model.VertexID(i) {
			t.Fatalf("result %d is %d: want 0..143 in order, got %v", i, v, got[0])
		}
	}
}

func TestLedgerRootsGateCompletion(t *testing.T) {
	l := newTestLedger()
	if l.quiescentLocked() {
		t.Fatal("completion before roots registered must be impossible")
	}
}

func TestLedgerPerStepAccounting(t *testing.T) {
	l := newTestLedger()
	l.rootsSent = true
	for i := uint64(1); i <= 3; i++ {
		l.registerCreatedLocked(wire.ExecRef{ID: i, Server: int32(i), Step: 0})
	}
	l.registerCreatedLocked(wire.ExecRef{ID: 10, Server: 0, Step: 1})
	if l.liveByStep[0] != 3 || l.liveByStep[1] != 1 {
		t.Fatalf("liveByStep = %v", l.liveByStep)
	}
	if l.liveByServer[0] != 1 || l.liveByServer[1] != 1 || l.liveByServer[2] != 1 || l.liveByServer[3] != 1 {
		t.Fatalf("liveByServer = %v", l.liveByServer)
	}
	l.registerEndedLocked(1)
	l.registerEndedLocked(2)
	if l.liveByStep[0] != 1 {
		t.Fatalf("liveByStep[0] = %d", l.liveByStep[0])
	}
	// The failure detector keys off per-server live counts: only the
	// servers whose executions have not ended may still hold the traversal.
	if l.liveByServer[1] != 0 || l.liveByServer[2] != 0 || l.liveByServer[3] != 1 || l.liveByServer[0] != 1 {
		t.Fatalf("liveByServer after ends = %v", l.liveByServer)
	}
}

// TestSyncModeStepOrdering verifies the barrier property end to end: with
// the synchronous engine, no step-k+1 vertex access may start before every
// step-k access finished. A disk tracer timestamps each simulated access
// with the step it serves.
func TestSyncModeStepOrdering(t *testing.T) {
	rec := &stepRecorder{}
	c := newCluster(t, 3, func(cfg *Config) {
		d := simio.NewDisk(0, 1)
		d.AttachTracer(func(_, step int, _ uint64) {
			rec.mu.Lock()
			rec.steps = append(rec.steps, int32(step))
			rec.mu.Unlock()
		})
		cfg.Disk = d
	})
	loadAuditGraph(t, c)
	plan := mustPlan(t, query.VLabel("User").E("run").E("read"))
	if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeSync, Coordinator: 0, Timeout: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// In sync mode the recorded access steps must be non-decreasing:
	// 0...0 1...1 2...2.
	maxSeen := int32(-1)
	for i, step := range rec.steps {
		if step < maxSeen {
			t.Fatalf("access %d at step %d after step %d began: barrier violated (%v)",
				i, step, maxSeen, rec.steps)
		}
		if step > maxSeen {
			maxSeen = step
		}
	}
	if maxSeen != 2 {
		t.Fatalf("expected steps through 2, saw %v", rec.steps)
	}
}

// TestAsyncModeOverlapsSteps is the converse: with a slowed disk and the
// asynchronous engine, step processing should interleave — at least one
// access of a lower step lands after a higher step began.
func TestAsyncModeOverlapsSteps(t *testing.T) {
	rec := &stepRecorder{}
	c := newCluster(t, 4, func(cfg *Config) {
		d := simio.NewDisk(500*time.Microsecond, 1)
		d.AttachTracer(func(_, step int, _ uint64) {
			rec.mu.Lock()
			rec.steps = append(rec.steps, int32(step))
			rec.mu.Unlock()
		})
		cfg.Disk = d
	})
	// A wider random graph so servers progress unevenly.
	r := rand.New(rand.NewSource(3))
	randomGraph(t, c, r, 80, 400)
	plan := mustPlan(t, query.V(0, 1, 2, 3).E("run").E("read").E("write").E("run"))
	if _, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: 0, Timeout: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	overlapped := false
	maxSeen := int32(-1)
	for _, step := range rec.steps {
		if step < maxSeen {
			overlapped = true
			break
		}
		if step > maxSeen {
			maxSeen = step
		}
	}
	if !overlapped {
		t.Log("no overlap observed; asynchronous interleaving is timing-dependent")
	}
}

// stepRecorder logs the traversal step of every simulated disk access.
type stepRecorder struct {
	mu    sync.Mutex
	steps []int32
}
