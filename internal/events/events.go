// Package events keeps a bounded, in-memory journal of control-plane
// transitions on one backend server: failure-detector suspicions,
// promotions, epoch bumps, shard handoffs, rejoin nudges, executor
// backpressure bursts and slow-traversal captures. Traversal data-path
// activity is deliberately out of scope — counters and traces cover it —
// so the journal stays small, cheap and human-sized: it answers "what did
// the cluster DO around 14:03" without log scraping.
//
// The journal is served over HTTP by internal/obs (/events), pulled over
// the wire by wire.KindIntrospectReq, and merged cluster-wide + time-sorted
// by Merge for both. Its ring is trace.Ring, the one bounded ring the
// server's buffers share.
package events

import (
	"sort"
	"sync"
	"time"

	"graphtrek/internal/trace"
)

// Type discriminates journal entries. String-typed so the JSON forms are
// self-describing and stable across versions.
type Type string

const (
	// SuspicionUp records a peer transitioning alive → suspected-dead,
	// detected locally by missed heartbeats or adopted from a PeerDown
	// broadcast (Detail distinguishes).
	SuspicionUp Type = "suspicion_up"
	// SuspicionDown records a suspected peer proving itself alive again.
	SuspicionDown Type = "suspicion_down"
	// Promotion records this server promoting itself follower → primary
	// for Part, fenced at Epoch.
	Promotion Type = "promotion"
	// EpochBump records Part's fencing epoch advancing to Epoch without a
	// role change (replica-set growth, handoff completion, re-assertion).
	EpochBump Type = "epoch_bump"
	// HandoffStart records this primary beginning a snapshot stream of
	// Part to Peer (shard handoff or follower catch-up).
	HandoffStart Type = "handoff_start"
	// HandoffDone records the snapshot stream completing and Peer joining
	// Part's replica set.
	HandoffDone Type = "handoff_done"
	// RejoinNudge records this primary inviting recovered Peer back into
	// Part's replica set after a false suspicion.
	RejoinNudge Type = "rejoin_nudge"
	// Backpressure records the shared executor refusing request batches
	// (queue depth limit). Consecutive rejections coalesce into one entry
	// with a growing Count, so a burst cannot wash the journal.
	Backpressure Type = "backpressure"
	// SlowTravel records a coordinator capturing a slow traversal's full
	// causal trace DAG (threshold in core.Config.SlowTravelNs).
	SlowTravel Type = "slow_travel"
)

// Event is one journal entry. Part and Peer are -1 when the event has no
// partition or peer subject; Epoch and Count are meaningful only where
// their Type says so.
type Event struct {
	// Seq orders events on one server (monotonic from 1, survives ring
	// eviction — a gap at the front means old entries were dropped).
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the wall-clock stamp.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Server is the recording backend's node id.
	Server int `json:"server"`
	// Type is the transition kind.
	Type Type `json:"type"`
	// Part is the subject partition, -1 if none.
	Part int `json:"part"`
	// Peer is the subject peer server, -1 if none.
	Peer int `json:"peer"`
	// Epoch is the fencing epoch for promotion/epoch-bump events.
	Epoch uint64 `json:"epoch,omitempty"`
	// Count aggregates coalesced occurrences (backpressure bursts).
	Count int64 `json:"count,omitempty"`
	// Detail is a short human-readable qualifier.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded ring of events. All methods are safe for concurrent
// use.
type Journal struct {
	mu     sync.Mutex // orders sequence numbers with the ring's entries
	server int
	seq    uint64
	ring   *trace.Ring[Event]
}

// coalesceWindow bounds how stale the newest Backpressure entry may be
// and still absorb another rejection burst into its Count.
const coalesceWindow = time.Second

// NewJournal makes a journal for one server holding up to capacity events.
func NewJournal(server, capacity int) *Journal {
	return &Journal{server: server, ring: trace.NewRing[Event](capacity)}
}

// Record stamps e with the next sequence number, the current time and the
// journal's server id, then appends it, evicting the oldest entry when
// full. Backpressure events arriving within coalesceWindow of a previous
// Backpressure entry for the same partition merge into it instead.
func (j *Journal) Record(e Event) {
	now := time.Now().UnixNano()
	if e.Type == Backpressure && e.Count <= 0 {
		e.Count = 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.Type == Backpressure && j.ring.Update(func(last *Event) bool {
		if last.Type != Backpressure || last.Part != e.Part || now-last.TimeUnixNano >= int64(coalesceWindow) {
			return false
		}
		last.TimeUnixNano = now
		last.Count += e.Count
		return true
	}) {
		return
	}
	j.seq++
	e.Seq, e.TimeUnixNano, e.Server = j.seq, now, j.server
	j.ring.Record(e)
}

// Events returns a copy of the buffered entries, oldest first.
func (j *Journal) Events() []Event { return j.ring.Snapshot() }

// Dropped counts entries evicted by the ring bound since start.
func (j *Journal) Dropped() uint64 { return j.ring.Evicted() }

// Merge joins server journals into one timeline ordered by wall-clock stamp
// (ties: server, then per-server sequence): what /events serves and what a
// client's cluster-wide pull returns.
func Merge(journals ...[]Event) []Event {
	all := make([]Event, 0, 64)
	for _, evs := range journals {
		all = append(all, evs...)
	}
	sort.Slice(all, func(i, k int) bool {
		a, b := all[i], all[k]
		if a.TimeUnixNano != b.TimeUnixNano {
			return a.TimeUnixNano < b.TimeUnixNano
		}
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		return a.Seq < b.Seq
	})
	return all
}
