// Package kv implements an embedded, persistent, ordered key-value store —
// the storage substrate that plays the role RocksDB played in the GraphTrek
// paper. It is a small but complete log-structured merge design:
//
//   - writes go to a write-ahead log and an in-memory skiplist memtable;
//   - when the memtable exceeds a size threshold it is flushed to an
//     immutable sorted-string table (SSTable) on disk;
//   - reads consult the memtable first, then SSTables newest-to-oldest;
//   - iterators merge all sources in key order with newest-wins semantics;
//   - when too many SSTables accumulate they are compacted into one.
//
// The property the graph layer depends on is ordered prefix iteration:
// all the edges of one vertex with one label are stored under a common key
// prefix, so a typed edge scan is a sequential read — exactly the layout
// argument the paper makes for its storage system (§IV-B, §VI).
package kv

import (
	"bytes"
	"errors"
	"fmt"
)

// Common errors returned by the store.
var (
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = errors.New("kv: database is closed")
	// ErrEmptyKey is returned when a key of length zero is used.
	ErrEmptyKey = errors.New("kv: empty key")
)

// Options configures a DB.
type Options struct {
	// MemtableBytes is the approximate memtable size that triggers a flush
	// to an SSTable. Zero selects the default (4 MiB).
	MemtableBytes int
	// CompactAt is the number of SSTables that triggers a full compaction.
	// Zero selects the default (6).
	CompactAt int
	// IndexInterval is the number of entries between sparse-index samples
	// in an SSTable. Zero selects the default (16).
	IndexInterval int
	// SyncWAL forces an fsync after every WAL append. Durable but slow;
	// the graph servers leave it off and rely on close-time syncs, the
	// same trade RocksDB's default makes.
	SyncWAL bool
	// Warnf, when set, receives recovery warnings (e.g. a torn WAL tail
	// truncated during replay). Nil discards them.
	Warnf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.CompactAt <= 0 {
		o.CompactAt = 6
	}
	if o.IndexInterval <= 0 {
		o.IndexInterval = 16
	}
	return o
}

// entry is one key-value record flowing through the store. A tombstone
// marks a deletion that must shadow older values until compaction drops it.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// compareKeys orders keys lexicographically, the only order the store uses.
func compareKeys(a, b []byte) int { return bytes.Compare(a, b) }

// prefixEnd appends to dst the smallest key greater than every key with the
// given prefix, or returns nil if no such key exists (prefix is all 0xff).
func prefixEnd(dst, prefix []byte) []byte {
	end := append(dst, prefix...)
	for i := len(end) - 1; i >= len(dst); i-- {
		if end[i] != 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// validateKey rejects keys the store cannot represent.
func validateKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > 1<<20 {
		return fmt.Errorf("kv: key too large (%d bytes)", len(key))
	}
	return nil
}
