package simio

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var blockSeq atomic.Uint64

// nextBlock returns a fresh block id so each test access is a cold miss.
func nextBlock() uint64 { return blockSeq.Add(1) }

func TestZeroServiceTimeIsFree(t *testing.T) {
	d := NewDisk(0, 1)
	served := counted(d)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		d.Access(0, nextBlock())
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("zero-latency disk took %v", took)
	}
	if *served != 1000 {
		t.Errorf("accesses = %d", *served)
	}
}

func TestServiceTimeApplied(t *testing.T) {
	d := NewDisk(5*time.Millisecond, 1)
	start := time.Now()
	for i := 0; i < 4; i++ {
		d.Access(0, nextBlock())
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Errorf("4 serial accesses took %v, want >= 20ms", took)
	}
}

func TestParallelismAllowsConcurrentAccesses(t *testing.T) {
	// 8 accesses of 10ms on 4 slots should take ~20ms, not ~80ms.
	d := NewDisk(10*time.Millisecond, 4)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(0, nextBlock())
		}()
	}
	wg.Wait()
	took := time.Since(start)
	if took > 60*time.Millisecond {
		t.Errorf("8 accesses on 4 slots took %v, want well under serial 80ms", took)
	}
}

func TestSerialGateQueues(t *testing.T) {
	// 6 accesses of 10ms on 1 slot must take at least 60ms.
	d := NewDisk(10*time.Millisecond, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(0, nextBlock())
		}()
	}
	wg.Wait()
	if took := time.Since(start); took < 55*time.Millisecond {
		t.Errorf("serial disk took %v, want >= ~60ms", took)
	}
}

func TestStragglerRuleDelaysExactCount(t *testing.T) {
	p := NewStragglerPlan()
	p.AddRule(2, 3, 20*time.Millisecond, 2)
	d := NewDisk(0, 1)
	d.AttachStragglers(2, p)

	start := time.Now()
	d.Access(3, nextBlock())
	d.Access(3, nextBlock())
	if took := time.Since(start); took < 35*time.Millisecond {
		t.Errorf("two delayed accesses took %v, want >= 40ms", took)
	}
	if remaining(p, 2, 3) != 0 {
		t.Errorf("remaining = %d", remaining(p, 2, 3))
	}
	// Budget exhausted: further accesses are fast.
	start = time.Now()
	d.Access(3, nextBlock())
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("post-budget access took %v", took)
	}
}

func TestStragglerOnlyMatchingServerAndStep(t *testing.T) {
	p := NewStragglerPlan()
	p.AddRule(1, 1, 20*time.Millisecond, 100)
	d := NewDisk(0, 1)
	d.AttachStragglers(0, p) // different server

	start := time.Now()
	d.Access(1, nextBlock())
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("non-matching server delayed: %v", took)
	}
	d2 := NewDisk(0, 1)
	d2.AttachStragglers(1, p)
	start = time.Now()
	d2.Access(0, nextBlock()) // different step
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("non-matching step delayed: %v", took)
	}
	if remaining(p, 1, 1) != 100 {
		t.Errorf("budget consumed by non-matching accesses: %d", remaining(p, 1, 1))
	}
}

func TestPaperPlanRoundRobin(t *testing.T) {
	// §VII-C: stragglers at steps 1, 3, 7 over three servers round-robin.
	p := PaperPlan([]int{4, 9, 14}, []int{1, 3, 7}, 50*time.Millisecond, 500)
	for _, c := range []struct{ server, step, want int }{
		{4, 1, 500}, {9, 3, 500}, {14, 7, 500},
		{4, 3, 0}, {9, 1, 0}, {14, 1, 0},
	} {
		if got := remaining(p, c.server, c.step); got != c.want {
			t.Errorf("Remaining(%d,%d) = %d, want %d", c.server, c.step, got, c.want)
		}
	}
}

func TestParallelismFloor(t *testing.T) {
	d := NewDisk(0, 0) // clamped to 1
	served := counted(d)
	d.Access(0, nextBlock()) // must not deadlock
	if *served != 1 {
		t.Error("access not recorded")
	}
}

// counted makes d count the accesses it serves.
func counted(d *Disk) *int {
	n := new(int)
	d.AttachTracer(func(int, int, uint64) { *n++ })
	return n
}

// remaining reports the undelivered delay count of a (server, step) rule.
func remaining(p *StragglerPlan, server, step int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.rules[stragglerKey{server, step}]; ok {
		return r.remaining
	}
	return 0
}
