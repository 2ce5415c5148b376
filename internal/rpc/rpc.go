// Package rpc provides the asynchronous message transport the traversal
// engines run over — the role ZeroMQ played in the paper. Two
// implementations share one interface:
//
//   - Fabric / Endpoint: an in-process transport over buffered channels,
//     used by the simulated clusters in tests and benchmarks;
//   - TCP (tcp.go): a length-framed stream transport over net, used by the
//     standalone server daemon; one writev sends every frame already queued
//     for a peer, and each connection is read through a buffer.
//
// Both guarantee the property the engines' correctness argument needs:
// messages from one node to another arrive in the order their Sends were
// accepted (per-pair FIFO), across goroutines: a Send begun after another to
// the same node returned nil is delivered after it (in Chaos too, unless
// ReorderProb fires). Delivery is asynchronous — Send enqueues and
// returns — which is what lets a traversal execution finish without waiting
// for downstream servers (§IV-B).
package rpc

import (
	"errors"
	"fmt"
	"sync"

	"graphtrek/internal/wire"
)

// ErrClosed is returned by Send after the transport is closed.
var ErrClosed = errors.New("rpc: transport closed")

// Handler processes one inbound message. Handlers run on the transport's
// dispatch goroutine; long work must be handed off (the engines enqueue
// into their scheduler).
type Handler func(from int, msg wire.Message)

// Transport is the engine-facing messaging contract. Node ids are dense
// indexes 0..N-1; the coordinator and clients use ids from the same space.
type Transport interface {
	// Self returns this node's id.
	Self() int
	// N returns the cluster size.
	N() int
	// Send enqueues msg for delivery to node `to`. It blocks only when the
	// receiver's inbox is full (backpressure), and preserves per-pair FIFO
	// order. Sending to self is allowed and loops back through the inbox.
	Send(to int, msg wire.Message) error
	// Close shuts the transport down; pending messages may be dropped.
	Close() error
}

// Fabric is an in-process cluster of endpoints connected by channels.
type Fabric struct {
	endpoints []*Endpoint
}

// inboxSize is each endpoint's inbox capacity, sized for traversal bursts;
// a sender blocks only when its receiver's inbox is full.
const inboxSize = 4096

// NewFabric creates a fabric of n endpoints.
func NewFabric(n int) *Fabric {
	f := &Fabric{}
	f.endpoints = make([]*Endpoint, n)
	for i := range f.endpoints {
		f.endpoints[i] = &Endpoint{
			fabric: f,
			id:     i,
			inbox:  make(chan envelope, inboxSize),
			done:   make(chan struct{}),
		}
	}
	return f
}

// Endpoint returns node i's transport.
func (f *Fabric) Endpoint(i int) *Endpoint { return f.endpoints[i] }

// N returns the cluster size.
func (f *Fabric) N() int { return len(f.endpoints) }

// Close closes every endpoint.
func (f *Fabric) Close() error {
	for _, ep := range f.endpoints {
		ep.Close()
	}
	return nil
}

type envelope struct {
	from int
	msg  wire.Message
}

// Endpoint is one node's in-process transport.
type Endpoint struct {
	fabric *Fabric
	id     int
	inbox  chan envelope

	mu      sync.Mutex
	handler Handler
	started bool
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

var _ Transport = (*Endpoint)(nil)

// Self implements Transport.
func (e *Endpoint) Self() int { return e.id }

// N implements Transport.
func (e *Endpoint) N() int { return e.fabric.N() }

// Start registers the handler and begins dispatching inbound messages on a
// dedicated goroutine. It must be called exactly once before any peer
// sends to this endpoint.
func (e *Endpoint) Start(h Handler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("rpc: endpoint %d already started", e.id)
	}
	if e.closed {
		return ErrClosed
	}
	e.handler = h
	e.started = true
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			select {
			case env := <-e.inbox:
				h(env.from, env.msg)
			case <-e.done:
				// Drain what is already queued, then stop.
				for {
					select {
					case env := <-e.inbox:
						h(env.from, env.msg)
					default:
						return
					}
				}
			}
		}
	}()
	return nil
}

// Send implements Transport.
func (e *Endpoint) Send(to int, msg wire.Message) error {
	if to < 0 || to >= e.fabric.N() {
		return fmt.Errorf("rpc: no such node %d", to)
	}
	peer := e.fabric.endpoints[to]
	select {
	case <-peer.done:
		return ErrClosed
	default:
	}
	select {
	case peer.inbox <- envelope{from: e.id, msg: msg}:
		return nil
	case <-peer.done:
		return ErrClosed
	}
}

// Close implements Transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}
