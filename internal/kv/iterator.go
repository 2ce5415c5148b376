package kv

import "bytes"

// Iterator walks live keys in ascending order. It holds the database's read
// lock from creation until Close, so the view is consistent; the calling
// goroutine must not write to the DB while an iterator is open.
type Iterator struct {
	db    *DB
	merge mergeIterator
	end   []byte // exclusive bound, nil = none
	ok    bool
	key   []byte
	value []byte
	done  bool
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
// Close must be called to release the read lock.
func (db *DB) NewIterator(opts IterOptions) (*Iterator, error) {
	start, end := opts.Start, opts.End
	if opts.Prefix != nil {
		if start == nil {
			start = opts.Prefix
		}
		if end == nil {
			end = prefixEnd(opts.Prefix)
		}
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	// Only sources that can hold a key in [start, end): an empty memtable
	// and a table whose key range misses the bounds cost nothing.
	srcs := make([]source, 0, len(db.tables)+1)
	if db.mem.count > 0 {
		srcs = append(srcs, db.mem.iterate(start))
	}
	for _, t := range db.tables {
		if t.overlaps(start, end) {
			srcs = append(srcs, t.iterate(start))
		}
	}
	it := &Iterator{db: db, end: end}
	it.merge.init(srcs)
	it.settle()
	return it, nil
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
			it.key, it.value, it.ok = e.key, e.value, true
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry. When it
// turns false, Err tells the end of the range from a failed read.
func (it *Iterator) Valid() bool { return it.ok }

// Key returns the current key. The slice is only valid until Next or Close.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value. The slice is only valid until Next or
// Close.
func (it *Iterator) Value() []byte { return it.value }

// Next advances to the following entry.
func (it *Iterator) Next() {
	if it.ok {
		it.merge.next()
		it.settle()
	}
}

// Err returns the read error that ended the iteration early, if any: an
// iterator that stopped on one has not seen every key in its range.
func (it *Iterator) Err() error { return it.merge.err }

// Close releases the iterator's read buffers and read lock. It is safe to
// call twice.
func (it *Iterator) Close() {
	if !it.done {
		it.done = true
		it.ok = false
		it.merge.close()
		it.db.mu.RUnlock()
	}
}

// Scan invokes fn for every live key with the given prefix, in key order,
// stopping early if fn returns false. It is the common fast path for typed
// edge scans.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	it, err := db.NewIterator(IterOptions{Prefix: prefix})
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Valid() {
		if !fn(it.Key(), it.Value()) {
			return nil
		}
		it.Next()
	}
	return it.Err()
}
