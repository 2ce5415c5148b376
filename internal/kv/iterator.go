package kv

import (
	"bytes"
	"runtime/debug"
	"sync"
)

// Iterator walks live keys in ascending order. It holds the database's read
// lock from creation until Close, so the view is consistent; the calling
// goroutine must not write to the DB while an iterator is open. Scan takes
// its iterators from scanPool.
type Iterator struct {
	db     *DB
	merge  mergeIterator
	end    []byte // exclusive bound, nil = none; in endBuf unless long
	ok     bool   // the merge stands on a live entry in bounds
	done   bool
	endBuf [32]byte
}

// IterOptions bounds an iteration. Prefix is a convenience that sets
// [Start, End) to cover exactly the keys sharing the prefix; explicit
// Start/End override it when non-nil.
type IterOptions struct {
	Prefix []byte
	Start  []byte // inclusive
	End    []byte // exclusive
}

// NewIterator opens an iterator over the current contents of the database.
// Close must be called to release the read lock. The iterator is one
// allocation: it copies End (or the prefix's end) and holds its table
// cursors itself, so it keeps none of opts. A table that fails the seek
// shows in Err, as it would on Next.
func (db *DB) NewIterator(opts IterOptions) (*Iterator, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	it := newIterator(len(db.tables))
	it.open(db, opts)
	return it, nil
}

// open positions it, which has room for a cursor per table, at the first
// live key in opts' bounds. The caller holds db's read lock.
func (it *Iterator) open(db *DB, opts IterOptions) {
	it.db = db
	start := opts.Start
	if start == nil {
		start = opts.Prefix
	}
	if opts.End != nil {
		it.end = append(it.endBuf[:0], opts.End...)
	} else if opts.Prefix != nil {
		it.end = prefixEnd(it.endBuf[:0], opts.Prefix)
	}
	defer db.catchFault(debug.SetPanicOnFault(true), &it.merge.err)
	// Only sources that can hold a key in [start, end): an empty memtable
	// and a table whose key range misses the bounds cost nothing.
	if db.mem.count > 0 {
		it.merge.mem = db.mem.iterate(start)
	}
	for _, t := range db.tables {
		if t.overlaps(start, it.end) {
			n := len(it.merge.tabs)
			it.merge.tabs = it.merge.tabs[:n+1]
			it.merge.tabs[n].seek(t, start)
		}
	}
	it.merge.pick()
	it.settle()
}

const poolCursors = 8 // a pooled iterator's room; above CompactAt's default

// scanPool holds idle Scan iterators, their cursors cleared.
var scanPool = sync.Pool{New: func() any { return newIterator(poolCursors) }}

// newIterator allocates an Iterator with room for poolCursors table cursors
// as one object; only more tables than that take a second allocation.
func newIterator(tables int) *Iterator {
	if tables > poolCursors {
		return &Iterator{merge: mergeIterator{tabs: make([]sstIterator, 0, tables)}}
	}
	x := new(struct {
		Iterator
		cursors [poolCursors]sstIterator
	})
	x.merge.tabs = x.cursors[:0]
	return &x.Iterator
}

// settle stops on the merge's current entry if it is live and in bounds,
// stepping past tombstones. It reads the entry in place — the merge is not
// advanced past it until Next — so Key and Value stay valid until then.
func (it *Iterator) settle() {
	for it.ok = false; it.merge.valid(); it.merge.next() {
		e := it.merge.entry()
		if it.end != nil && bytes.Compare(e.key, it.end) >= 0 {
			return
		}
		if !e.tombstone {
			it.ok = true
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry. When it
// turns false, Err tells the end of the range from a failed read.
func (it *Iterator) Valid() bool { return it.ok }

// Key returns the current key. The slice is only valid until Next or Close.
func (it *Iterator) Key() []byte { return it.merge.entry().key }

// Value returns the current value. The slice is only valid until Next or
// Close.
func (it *Iterator) Value() []byte { return it.merge.entry().value }

// Next advances to the following entry.
func (it *Iterator) Next() {
	if it.ok {
		defer it.db.catchFault(debug.SetPanicOnFault(true), &it.merge.err)
		it.step()
	}
}

// step is Next without the fault guard, for callers that hold one.
func (it *Iterator) step() {
	it.ok = false
	it.merge.next()
	it.settle()
}

// Err returns the read error that ended the iteration early, if any: an
// iterator that stopped on one has not seen every key in its range.
func (it *Iterator) Err() error { return it.merge.err }

// Close releases the iterator's read lock. It is safe to call twice.
func (it *Iterator) Close() {
	if !it.done {
		it.done = true
		it.ok = false
		it.db.mu.RUnlock()
	}
}

// Scan invokes fn for every live key with the given prefix, in key order,
// stopping early if fn returns false. It is the common fast path for typed
// edge scans. The key and value passed to fn are valid only until fn
// returns. Over up to poolCursors tables it reuses a pooled iterator, so
// it allocates nothing.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) bool) (err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	var it *Iterator
	if len(db.tables) <= poolCursors {
		it = scanPool.Get().(*Iterator)
		defer it.recycle()
	} else {
		it = newIterator(len(db.tables))
	}
	it.open(db, IterOptions{Prefix: prefix})
	defer db.catchFault(debug.SetPanicOnFault(true), &err)
	for ; it.ok; it.step() {
		if e := it.merge.entry(); !fn(e.key, e.value) {
			return nil
		}
	}
	return it.Err()
}

// recycle returns a Scan iterator to scanPool, also when fn panicked. It
// clears the cursors it used, so the pool pins no table, mapping or key.
func (it *Iterator) recycle() {
	clear(it.merge.tabs)
	*it = Iterator{merge: mergeIterator{tabs: it.merge.tabs[:0]}}
	scanPool.Put(it)
}
