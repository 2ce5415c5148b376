package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"graphtrek/internal/gstore"
	"graphtrek/internal/repl"
	"graphtrek/internal/wire"
)

// This file is the consumer side of the change feed (DESIGN.md §14). A
// Feed maintains one partition subscription against whichever server
// currently primaries the partition, resubscribing with its cursor across
// primary failover. The cursor is the last committed sequence the consumer
// processed; because the server only ever emits quorum-committed records
// and sequences are monotone along the surviving replica lineage, resuming
// by cursor yields every committed mutation exactly once — no gaps, no
// duplicates — even when the subscription hops primaries mid-stream.

// FeedEvent is one committed mutation batch delivered to a subscriber.
type FeedEvent struct {
	Part  int
	Epoch uint64
	Seq   uint64
	Muts  []gstore.Mutation
}

// FeedOptions tunes SubscribeFeed.
type FeedOptions struct {
	// Cursor resumes the stream after this sequence (exclusive). Zero
	// starts from the beginning of the partition's retained history; a
	// consumer that falls further behind than the primary's retention ring
	// gets a terminal error and must re-seed from a full read.
	Cursor uint64
	// Refresh is the cadence of the subscription keepalive check: each tick
	// the feed resubscribes if the partition's primary moved or the last
	// subscribe attempt went unconfirmed (default 200ms).
	Refresh time.Duration
}

// Feed is a live subscription to one partition's committed-mutation stream.
type Feed struct {
	c    *Client
	part int

	mu         sync.Mutex
	cursor     uint64
	target     int  // server the current subscription points at
	confirmed  bool // a batch (or confirmation) arrived since the last (re)subscribe
	queue      []FeedEvent
	err        error // terminal error, surfaced via Err after Events closes
	closed     bool
	wake       chan struct{} // pump wakeup, capacity 1
	resub      chan struct{} // resubscribe kick, capacity 1
	stop       chan struct{}
	events     chan FeedEvent
	pumpDone   chan struct{}
	refresh    time.Duration
	unsubOnced sync.Once
}

// SubscribeFeed opens a change-feed subscription on one partition. Events
// arrive on Events() in sequence order; Close releases the subscription.
// Requires a replicated cluster (a *route.View partitioner).
func (c *Client) SubscribeFeed(part int, opts FeedOptions) (*Feed, error) {
	if c.tr == nil {
		return nil, errors.New("core: client not bound to a transport")
	}
	if c.route == nil {
		return nil, errors.New("core: replication is not enabled on this cluster")
	}
	if part < 0 || part >= c.route.Parts() {
		return nil, fmt.Errorf("query: no such partition %d", part)
	}
	if opts.Refresh <= 0 {
		opts.Refresh = 200 * time.Millisecond
	}
	f := &Feed{
		c:        c,
		part:     part,
		cursor:   opts.Cursor,
		target:   -1,
		wake:     make(chan struct{}, 1),
		resub:    make(chan struct{}, 1),
		stop:     make(chan struct{}),
		events:   make(chan FeedEvent, 64),
		pumpDone: make(chan struct{}),
		refresh:  opts.Refresh,
	}
	c.mu.Lock()
	if c.feeds == nil {
		c.feeds = make(map[int]*Feed)
	}
	if _, dup := c.feeds[part]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: a feed subscription for partition %d is already open on this client", part)
	}
	c.feeds[part] = f
	c.mu.Unlock()
	go f.pump()
	go f.loop()
	return f, nil
}

// Events returns the delivery channel. It closes when the feed is closed or
// hits a terminal error (check Err after it closes).
func (f *Feed) Events() <-chan FeedEvent { return f.events }

// Err reports the feed's terminal error, if any. Meaningful once Events is
// closed.
func (f *Feed) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Cursor reports the last committed sequence delivered to the pump — the
// value a future SubscribeFeed would resume from.
func (f *Feed) Cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// Close unsubscribes and tears the feed down. Safe to call more than once.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	target := f.target
	f.mu.Unlock()
	f.c.mu.Lock()
	if f.c.feeds[f.part] == f {
		delete(f.c.feeds, f.part)
	}
	f.c.mu.Unlock()
	close(f.stop)
	if target >= 0 {
		f.unsubOnced.Do(func() {
			f.c.tr.Send(target, wire.Message{Kind: wire.KindFeedSub, Mode: repl.FeedModeUnsub, Part: int32(f.part)})
		})
	}
	<-f.pumpDone
}

// fail records a terminal error and tears the feed down from the handler
// side.
func (f *Feed) fail(err error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.err = err
	f.closed = true
	f.mu.Unlock()
	f.c.mu.Lock()
	if f.c.feeds[f.part] == f {
		delete(f.c.feeds, f.part)
	}
	f.c.mu.Unlock()
	close(f.stop)
}

// loop drives (re)subscription: an immediate subscribe, then resubscribes
// whenever the handler kicks (gap, moved-primary error) or a refresh tick
// finds the primary moved or the last attempt unconfirmed — which covers a
// subscribe message lost to a dying primary.
func (f *Feed) loop() {
	f.subscribe()
	tick := time.NewTicker(f.refresh)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-f.resub:
			f.subscribe()
		case <-tick.C:
			primary := int(f.c.route.Assignment(f.part).Primary)
			f.mu.Lock()
			stale := !f.confirmed || primary != f.target
			f.mu.Unlock()
			if stale {
				f.subscribe()
			}
		}
	}
}

// subscribe (re)sends the subscription to the partition's current primary
// with the current cursor. The server replies with the committed backlog
// past the cursor (or an empty confirmation), then streams.
func (f *Feed) subscribe() {
	primary := int(f.c.route.Assignment(f.part).Primary)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	cursor := f.cursor
	f.target = primary
	f.confirmed = false
	f.mu.Unlock()
	f.c.tr.Send(primary, wire.Message{
		Kind: wire.KindFeedSub, Mode: repl.FeedModeSub, Part: int32(f.part), Seq: cursor,
	})
}

// kick requests a resubscribe without blocking the transport handler.
func (f *Feed) kick() {
	select {
	case f.resub <- struct{}{}:
	default:
	}
}

// handleBatch processes one KindFeedBatch from the wire. It runs on the
// transport's dispatch goroutine, so it never blocks: events land in an
// unbounded queue drained by the pump.
func (f *Feed) handleBatch(msg wire.Message) {
	if msg.Err != "" {
		err := errors.New(msg.Err)
		if len(msg.Blob) > 0 {
			f.c.mergeRoute(msg.Blob)
		}
		if !Retryable(err) {
			f.fail(err)
			return
		}
		// Transient (moved primary, replication off during boot): point the
		// subscription at whatever the merged table now says.
		f.kick()
		return
	}
	recs, err := gstore.DecodeFeedRecords(msg.Blob)
	if err != nil {
		f.fail(fmt.Errorf("core: bad feed batch for partition %d: %w", f.part, err))
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.confirmed = true
	queued := false
	for _, r := range recs {
		if r.Seq <= f.cursor {
			continue // duplicate of an already delivered record (resubscribe overlap)
		}
		if r.Seq != f.cursor+1 {
			// A gap means this batch was built against a watermark ahead of
			// our cursor (e.g. a stale in-flight batch raced a resubscribe).
			// Drop the rest and re-present the cursor; the server re-ships.
			f.mu.Unlock()
			f.kick()
			return
		}
		f.queue = append(f.queue, FeedEvent{Part: f.part, Epoch: r.Epoch, Seq: r.Seq, Muts: r.Muts})
		f.cursor = r.Seq
		queued = true
	}
	f.mu.Unlock()
	if queued {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}

// pump drains the queue into the consumer-facing channel, decoupling a slow
// consumer from the transport dispatch goroutine.
func (f *Feed) pump() {
	defer close(f.pumpDone)
	defer close(f.events)
	for {
		f.mu.Lock()
		var next []FeedEvent
		if len(f.queue) > 0 {
			next = f.queue
			f.queue = nil
		}
		f.mu.Unlock()
		if next == nil {
			select {
			case <-f.stop:
				// Drain-free shutdown: the consumer is gone or the feed died.
				return
			case <-f.wake:
				continue
			}
		}
		for _, ev := range next {
			select {
			case f.events <- ev:
			case <-f.stop:
				return
			}
		}
	}
}
