package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"graphtrek/internal/wire"
)

// callTable is the package's one request/reply primitive: register a ReqID,
// send, wait for the reply or the deadline, unregister. Client and Server
// each own one; their transport handlers feed every reply kind to resolve.
// The table has its own small mutex so a reply never contends with traversal
// bookkeeping.
type callTable struct {
	// send transmits one message; nil until the owner is bound to a transport.
	send func(to int, msg wire.Message) error
	// stop, when closed, fails every call in flight (the owning server is
	// shutting down). Nil never fires.
	stop <-chan struct{}

	mu      sync.Mutex
	seq     uint64
	waiting map[uint64]chan wire.Message
}

// pullTimeout is the default bound on a progress or introspection pull whose
// caller passed no timeout.
const pullTimeout = 5 * time.Second

// pullDeadline turns a caller's relative timeout into the absolute deadline
// do takes, applying pullTimeout when none was given.
func pullDeadline(timeout time.Duration) time.Time {
	if timeout <= 0 {
		timeout = pullTimeout
	}
	return time.Now().Add(timeout)
}

// do stamps msg with a fresh ReqID, sends it to node `to` and blocks until
// the matching reply, the deadline, or stop. A reply carrying Err is
// returned together with that error, so a caller for which a remote Err is
// an answer rather than a failure can still read the reply.
func (t *callTable) do(to int, msg wire.Message, deadline time.Time) (wire.Message, error) {
	if t.send == nil {
		return wire.Message{}, errors.New("core: client not bound to a transport")
	}
	ch := make(chan wire.Message, 1)
	t.mu.Lock()
	if t.waiting == nil {
		t.waiting = make(map[uint64]chan wire.Message)
	}
	t.seq++
	msg.ReqID = t.seq
	t.waiting[msg.ReqID] = ch
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.waiting, msg.ReqID)
		t.mu.Unlock()
	}()
	if err := t.send(to, msg); err != nil {
		return wire.Message{}, err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.Err != "" {
			return resp, errors.New(resp.Err)
		}
		return resp, nil
	case <-timer.C:
		return wire.Message{}, fmt.Errorf("core: %v to server %d timed out", msg.Kind, to)
	case <-t.stop:
		return wire.Message{}, errors.New("core: server closing")
	}
}

// resolve hands a reply to the call waiting on its ReqID and reports whether
// one was. It never blocks: an entry is removed under the lock before its
// one-slot channel is filled, and a reply whose call already timed out finds
// no entry and is dropped.
func (t *callTable) resolve(msg wire.Message) bool {
	t.mu.Lock()
	ch, ok := t.waiting[msg.ReqID]
	delete(t.waiting, msg.ReqID)
	t.mu.Unlock()
	if ok {
		ch <- msg
	}
	return ok
}

// pull fetches one introspection document (what: wire.IntrospectSpans /
// IntrospectEvents / IntrospectStatus) from one backend and decodes its
// JSON payload. travel scopes a span pull; the other documents ignore it.
func pull[T any](t *callTable, srv int, what uint8, travel uint64, deadline time.Time) (T, error) {
	var doc T
	resp, err := t.do(srv, wire.Message{Kind: wire.KindIntrospectReq, Mode: what, TravelID: travel}, deadline)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(resp.Blob, &doc); err != nil {
		return doc, fmt.Errorf("core: bad introspection payload (kind %d) from server %d: %v", what, srv, err)
	}
	return doc, nil
}

// fanOut runs each once per backend, concurrently — a dead server costs only
// its own timeout, never the fleet's — and returns the per-server outcomes
// indexed by server id. What a failed server means is the caller's stated
// policy: failAny or answered.
func fanOut[T any](n int, each func(srv int) (T, error)) ([]T, []error) {
	docs := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for srv := 0; srv < n; srv++ {
		wg.Add(1)
		go func(srv int) {
			defer wg.Done()
			docs[srv], errs[srv] = each(srv)
		}(srv)
	}
	wg.Wait()
	return docs, errs
}

// failAny is the strict fan-out policy: the lowest-numbered failed server
// fails the whole pull.
func failAny(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// answered is the best-effort fan-out policy for a degraded cluster:
// unreachable servers are skipped, from lists the servers whose documents
// were kept, and the pull errors only when no server answered.
func answered[T any](docs []T, errs []error) ([]T, []int, error) {
	var out []T
	var from []int
	var lastErr error
	for srv, err := range errs {
		if err != nil {
			lastErr = err
			continue
		}
		out = append(out, docs[srv])
		from = append(from, srv)
	}
	if len(out) == 0 && lastErr != nil {
		return nil, nil, lastErr
	}
	return out, from, nil
}
