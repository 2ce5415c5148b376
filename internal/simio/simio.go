// Package simio is the virtual disk substrate. The paper's evaluation ran
// on a 320-node cluster where every vertex visit was a cold, mostly
// sequential disk access; here the whole cluster is simulated in one
// process, so each backend server gets a Disk: a gate with a configurable
// number of I/O slots and a fixed service time per access. Blocking a
// goroutine on the gate costs no CPU, which is what makes a 32-server
// simulation faithful on a small machine — the latency structure (serial
// per-server I/O, queueing under load, stragglers) is preserved even
// though the bytes live in memory.
//
// The package also implements the external-interference emulation of
// §VII-C verbatim: a StragglerPlan injects a fixed extra delay into a fixed
// number of individual vertex accesses on chosen servers at chosen steps.
package simio

import (
	"sync"
	"time"
)

// Disk models one backend server's storage device.
//
// Sub-millisecond service times are far below the OS sleep granularity, so
// the disk quantizes: it accrues virtual latency per access and sleeps only
// once the accrued debt reaches sleepQuantum. Throughput over any window
// longer than the quantum matches the configured service time exactly,
// which is the property the traversal simulation depends on.
type Disk struct {
	service time.Duration
	slots   chan struct{}

	mu        sync.Mutex
	straggler *StragglerPlan
	server    int
	debt      time.Duration
	touched   map[uint64]struct{}
	tracer    func(server, step int, block uint64)
}

// sleepQuantum is the smallest sleep the simulation issues; shorter debts
// accumulate until they reach it.
const sleepQuantum = time.Millisecond

// warmFraction is the cost of a repeat access relative to a cold one: the
// paper's evaluations run each traversal from a cold start, but a vertex
// visited twice within one traversal is served by the storage system's
// block cache / OS page cache on the second visit, at memory speed rather
// than disk speed. Redundant visits therefore waste bandwidth and CPU, not
// full seeks — which is why the paper's unoptimized Async-GT is ~1.3x
// slower than Sync-GT rather than arbitrarily slower.
const warmFraction = 0.02

// NewDisk creates a disk with the given per-access service time and number
// of concurrent I/O slots (parallelism). A service time of zero disables
// the simulated latency entirely (unit-test mode); parallelism below one is
// treated as one.
func NewDisk(service time.Duration, parallelism int) *Disk {
	if parallelism < 1 {
		parallelism = 1
	}
	d := &Disk{
		service: service,
		slots:   make(chan struct{}, parallelism),
		server:  -1,
		touched: make(map[uint64]struct{}),
	}
	for i := 0; i < parallelism; i++ {
		d.slots <- struct{}{}
	}
	return d
}

// AttachStragglers arms a straggler plan for this disk, identifying which
// simulated server it belongs to.
func (d *Disk) AttachStragglers(server int, p *StragglerPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.server = server
	d.straggler = p
}

// AttachTracer installs an access-trace callback (tests and tooling). The
// tracer runs under the disk's lock and must be fast.
func (d *Disk) AttachTracer(fn func(server, step int, block uint64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = fn
}

// Access performs one simulated access to the given block (a vertex id, or
// any distinct key for index scans) on behalf of the given traversal step:
// it acquires an I/O slot, waits the service time — full for a cold block,
// warmFraction of it for a previously touched block — plus any injected
// straggler delay, and releases the slot. With a zero service time and no
// straggler hit it returns immediately without blocking; so does a nil Disk.
func (d *Disk) Access(step int, block uint64) {
	if d == nil {
		return
	}
	var extra time.Duration
	d.mu.Lock()
	service := d.service
	if _, warm := d.touched[block]; warm {
		service = time.Duration(float64(service) * warmFraction)
	} else {
		d.touched[block] = struct{}{}
	}
	if d.straggler != nil {
		extra = d.straggler.take(d.server, step)
	}
	if d.tracer != nil {
		d.tracer(d.server, step, block)
	}
	d.mu.Unlock()
	total := service + extra
	if total == 0 {
		return
	}
	<-d.slots
	// Quantize: pay the accrued virtual latency only once it is large
	// enough for the OS timer to honor.
	d.mu.Lock()
	d.debt += total
	pay := d.debt
	if pay >= sleepQuantum {
		d.debt = 0
	} else {
		pay = 0
	}
	d.mu.Unlock()
	if pay > 0 {
		time.Sleep(pay)
	}
	d.slots <- struct{}{}
}

// Reset empties the simulated block cache and latency debt, restoring the
// cold-start condition the paper's evaluations begin each traversal from.
func (d *Disk) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.touched = make(map[uint64]struct{})
	d.debt = 0
}

// StragglerPlan emulates transient external interference the way §VII-C
// does: on selected (server, step) pairs, the first Count vertex accesses
// each suffer a fixed additional Delay. The paper used Delay = 50 ms and
// Count = 500, three selected servers, one straggler per step chosen
// round-robin at steps 1, 3 and 7.
type StragglerPlan struct {
	mu    sync.Mutex
	rules map[stragglerKey]*stragglerRule
}

type stragglerKey struct{ server, step int }

type stragglerRule struct {
	delay     time.Duration
	remaining int
}

// NewStragglerPlan returns an empty plan.
func NewStragglerPlan() *StragglerPlan {
	return &StragglerPlan{rules: make(map[stragglerKey]*stragglerRule)}
}

// AddRule arms one straggler: the first count accesses on server at the
// given traversal step each take an extra delay.
func (p *StragglerPlan) AddRule(server, step int, delay time.Duration, count int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules[stragglerKey{server, step}] = &stragglerRule{delay: delay, remaining: count}
}

// PaperPlan builds the §VII-C configuration: len(steps) stragglers, each on
// one of the selected servers chosen round-robin per step.
func PaperPlan(servers []int, steps []int, delay time.Duration, count int) *StragglerPlan {
	p := NewStragglerPlan()
	for i, step := range steps {
		p.AddRule(servers[i%len(servers)], step, delay, count)
	}
	return p
}

// take consumes one delayed access if a rule matches, returning the delay.
func (p *StragglerPlan) take(server, step int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rules[stragglerKey{server, step}]
	if !ok || r.remaining <= 0 {
		return 0
	}
	r.remaining--
	return r.delay
}
