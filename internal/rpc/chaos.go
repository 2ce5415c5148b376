package rpc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/wire"
)

// Chaos wraps a Transport with deterministic, seed-driven fault injection:
// message drops, delays, duplication, reordering, link partitions, and
// whole-node crash-stop. It is the standard harness for robustness tests —
// the same faults can be replayed from the same seed.
//
// Faults are injected on the send side (and, via WrapHandler, on the
// receive side), so a Chaos per node models that node's network view.
// Ordering: unless ReorderProb fires, every message to a given peer flows
// through one per-peer delay queue drained by a single goroutine, so
// per-pair FIFO — the property the engines' correctness argument relies on
// — is preserved even under delay and duplication. A reordered message
// bypasses the queue and may overtake earlier sends; engines tolerate
// completion-detection noise from that only in failure tests, so keep
// ReorderProb at zero in differential (exact-result) tests.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	mu      sync.Mutex
	rng     *rand.Rand
	links   map[int]*chaosLink
	cutOut  map[int]bool
	cutIn   map[int]bool
	closed  bool
	crashed atomic.Bool
	wg      sync.WaitGroup

	stats ChaosStats
}

// ChaosConfig selects the fault mix. All probabilities are in [0, 1] and
// drawn from one seeded source, so a given (seed, send sequence) replays
// identically.
type ChaosConfig struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DropProb silently discards an outbound message.
	DropProb float64
	// DupProb enqueues a second copy of the message after the original.
	DupProb float64
	// DelayProb holds a message in the per-peer queue for up to MaxDelay
	// before delivery (FIFO per peer is preserved).
	DelayProb float64
	// MaxDelay bounds injected delays (default 2ms when a delay fires).
	MaxDelay time.Duration
	// ReorderProb delivers a message on a side path after a random delay,
	// letting it overtake or fall behind queue traffic — this breaks
	// per-pair FIFO by design.
	ReorderProb float64
	// DropOut, when set, deterministically discards matching outbound
	// messages (targeted fault injection, e.g. "drop everything to the
	// coordinator for traversal 7").
	DropOut func(to int, msg wire.Message) bool
	// DropIn, when set, deterministically discards matching inbound
	// messages; it is consulted by the handler returned from WrapHandler.
	DropIn func(from int, msg wire.Message) bool
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Sent, Dropped, Delayed, Duplicated, Reordered, CrashDiscarded int64
}

// delayed is one queued outbound message with its delivery time.
type delayed struct {
	at  time.Time
	to  int
	msg wire.Message
}

// chaosLink is the per-peer FIFO delay queue.
type chaosLink struct {
	ch chan delayed
}

const chaosLinkDepth = 8192

// NewChaos wraps tr in a fault injector. Close the Chaos, not the inner
// transport; Close propagates.
func NewChaos(tr Transport, cfg ChaosConfig) *Chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Chaos{
		inner:  tr,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		links:  make(map[int]*chaosLink),
		cutOut: make(map[int]bool),
		cutIn:  make(map[int]bool),
	}
}

// Self implements Transport.
func (c *Chaos) Self() int { return c.inner.Self() }

// N implements Transport.
func (c *Chaos) N() int { return c.inner.N() }

// Crash simulates a crash-stop of this node: every subsequent outbound and
// (via WrapHandler) inbound message is discarded. The wrapped node's
// goroutines keep running — from the cluster's perspective that is
// indistinguishable from a dead process.
func (c *Chaos) Crash() { c.crashed.Store(true) }

// Revive undoes Crash — the node "restarts" with its state intact, which
// models a network partition healing rather than a process restart.
func (c *Chaos) Revive() { c.crashed.Store(false) }

// Isolate cuts both directions of the link to peer: a symmetric partition
// between this node and peer as seen from this side.
func (c *Chaos) Isolate(peer int) {
	c.mu.Lock()
	c.cutOut[peer] = true
	c.cutIn[peer] = true
	c.mu.Unlock()
}

// Heal restores the link to peer.
func (c *Chaos) Heal(peer int) {
	c.mu.Lock()
	delete(c.cutOut, peer)
	delete(c.cutIn, peer)
	c.mu.Unlock()
}

// Stats returns a copy of the fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WrapHandler returns a handler that applies receive-side faults (crash,
// partitions, DropIn) before delegating to h. Register it with the inner
// transport in place of h.
func (c *Chaos) WrapHandler(h Handler) Handler {
	return func(from int, msg wire.Message) {
		if c.crashed.Load() {
			return
		}
		c.mu.Lock()
		cut := c.cutIn[from]
		c.mu.Unlock()
		if cut {
			return
		}
		if c.cfg.DropIn != nil && c.cfg.DropIn(from, msg) {
			return
		}
		h(from, msg)
	}
}

// Send implements Transport, applying the configured fault mix.
func (c *Chaos) Send(to int, msg wire.Message) error {
	if c.crashed.Load() {
		c.mu.Lock()
		c.stats.CrashDiscarded++
		c.mu.Unlock()
		return nil // a dead node's sends vanish without an error
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.cutOut[to] {
		c.stats.Dropped++
		c.mu.Unlock()
		return nil
	}
	if c.cfg.DropOut != nil && c.cfg.DropOut(to, msg) {
		c.stats.Dropped++
		c.mu.Unlock()
		return nil
	}
	drop := c.roll(c.cfg.DropProb)
	dup := c.roll(c.cfg.DupProb)
	reorder := c.roll(c.cfg.ReorderProb)
	var delay time.Duration
	if c.roll(c.cfg.DelayProb) {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay)))
	}
	var dupDelay time.Duration
	if dup {
		dupDelay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay)))
	}
	var reorderDelay time.Duration
	if reorder {
		reorderDelay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay)))
	}
	c.stats.Sent++
	switch {
	case drop:
		c.stats.Dropped++
	case reorder:
		c.stats.Reordered++
	default:
		if delay > 0 {
			c.stats.Delayed++
		}
	}
	if dup && !drop {
		c.stats.Duplicated++
	}
	useQueue := c.cfg.DelayProb > 0 || c.cfg.DupProb > 0 || c.cfg.ReorderProb > 0
	var link *chaosLink
	if useQueue && !drop {
		link = c.linkLocked(to)
	}
	c.mu.Unlock()

	if drop {
		return nil
	}
	if reorder {
		// Side path: overtakes (or trails) the per-peer queue.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			time.Sleep(reorderDelay)
			_ = c.inner.Send(to, msg)
		}()
		return nil
	}
	if link == nil {
		return c.inner.Send(to, msg)
	}
	now := time.Now()
	c.enqueue(link, delayed{at: now.Add(delay), to: to, msg: msg})
	if dup {
		c.enqueue(link, delayed{at: now.Add(delay + dupDelay), to: to, msg: msg})
	}
	return nil
}

// roll draws one seeded probabilistic decision. Caller holds c.mu.
func (c *Chaos) roll(p float64) bool {
	return p > 0 && c.rng.Float64() < p
}

// linkLocked returns (starting if necessary) the per-peer delivery queue.
// Caller holds c.mu.
func (c *Chaos) linkLocked(to int) *chaosLink {
	l, ok := c.links[to]
	if !ok {
		l = &chaosLink{ch: make(chan delayed, chaosLinkDepth)}
		c.links[to] = l
		c.wg.Add(1)
		go c.drainLink(l)
	}
	return l
}

// enqueue adds a message to a link's queue, dropping it if the queue is
// saturated (an overloaded chaotic link loses messages — like a real one).
// It holds c.mu across the send so Close cannot close the channel between
// the closed check and the send: Send's entry check is not enough, because
// delivering one enqueued copy can unblock the caller's shutdown path
// while a duplicate's enqueue is still in flight.
func (c *Chaos) enqueue(l *chaosLink, d delayed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.stats.Dropped++
		return
	}
	select {
	case l.ch <- d:
	default:
		c.stats.Dropped++
	}
}

// drainLink delivers one peer's queue sequentially: waiting out each
// message's remaining delay in arrival order preserves per-pair FIFO.
func (c *Chaos) drainLink(l *chaosLink) {
	defer c.wg.Done()
	for d := range l.ch {
		if wait := time.Until(d.at); wait > 0 {
			time.Sleep(wait)
		}
		if c.crashed.Load() {
			continue
		}
		_ = c.inner.Send(d.to, d.msg)
	}
}

// Close stops the fault injector, drains queued deliveries, and closes the
// inner transport.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, l := range c.links {
		close(l.ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
	return c.inner.Close()
}

var _ Transport = (*Chaos)(nil)
