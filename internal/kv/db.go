package kv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DB is an embedded ordered key-value store. It is safe for concurrent use;
// point operations take a short lock and iterators hold a read lock for
// their lifetime (see NewIterator). Reads hand out bytes of the tables'
// mappings only while they hold the read lock, and a table is unmapped only
// under the write lock (compaction, Close).
type DB struct {
	dir  string
	opts Options

	mu      sync.RWMutex
	mem     *memtable
	log     *wal
	tables  []*sstable // newest first
	nextNum uint64
	closed  bool

	// stats counts write-side operations; guarded by mu. Gets is counted
	// separately with an atomic because reads only hold the read lock.
	stats Stats
	gets  atomic.Int64

	// replay records what Open's WAL recovery found; immutable after Open.
	replay ReplayStats
}

// Stats reports operation counters for a DB.
type Stats struct {
	Puts       int64
	Deletes    int64
	Gets       int64
	Flushes    int64
	Compacts   int64
	NumTables  int
	TableBytes int64
}

const (
	walName      = "wal.log"
	manifestName = "MANIFEST"
)

// Open opens (creating if necessary) a database in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kv: mkdir: %w", err)
	}
	db := &DB{dir: dir, opts: opts, mem: newMemtable(), nextNum: 1}

	// Load the manifest: the ordered list of live SSTables.
	names, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if err := db.removeOrphans(names); err != nil {
		return nil, err
	}
	for _, name := range names {
		num, err := tableFileNum(name)
		if err != nil {
			return nil, err
		}
		t, err := openSSTable(filepath.Join(dir, name), num)
		if err != nil {
			return nil, err
		}
		db.tables = append(db.tables, t)
		if num >= db.nextNum {
			db.nextNum = num + 1
		}
	}
	// Newest first.
	sort.Slice(db.tables, func(i, j int) bool { return db.tables[i].fileNum > db.tables[j].fileNum })

	// Replay the WAL into the memtable — truncating any torn tail first,
	// so the O_APPEND log below continues from the last intact record —
	// then continue appending to it.
	walPath := filepath.Join(dir, walName)
	db.replay, err = replayWAL(walPath, func(e entry) { db.mem.set(e) })
	if err != nil {
		db.closeTables()
		return nil, err
	}
	if db.replay.Truncated && opts.Warnf != nil {
		opts.Warnf("kv: wal %s: %s at offset %d; truncated %d-byte tail after %d intact records",
			walPath, db.replay.Reason, db.replay.GoodBytes, db.replay.TornBytes, db.replay.Records)
	}
	db.log, err = openWAL(walPath, opts.SyncWAL)
	if err != nil {
		db.closeTables()
		return nil, err
	}
	return db, nil
}

// removeOrphans deletes what a process killed between two file-system steps
// of a flush or compaction leaves in the directory besides the live tables
// (names): a table no manifest names, whose entries are in a named table or
// still in the WAL, and a manifest written but not renamed. New tables are
// numbered past every table file present, removed or not.
func (db *DB) removeOrphans(names []string) error {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("kv: list %s: %w", db.dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		num, err := tableFileNum(name)
		table := err == nil && name == tableFileName(num)
		if table {
			db.nextNum = max(db.nextNum, num+1)
		}
		if name == manifestName+".tmp" || table && !slices.Contains(names, name) {
			os.Remove(filepath.Join(db.dir, name))
		}
	}
	return nil
}

func (db *DB) closeTables() {
	for _, t := range db.tables {
		t.close()
	}
}

// Close flushes and releases the database. Further use returns ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.log.close()
	db.closeTables()
	return err
}

// Put stores value under key, replacing any existing value.
func (db *DB) Put(key, value []byte) error {
	return db.Apply(&Batch{ents: []entry{{key: bytes.Clone(key), value: bytes.Clone(value)}}})
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	return db.Apply(&Batch{ents: []entry{{key: bytes.Clone(key), tombstone: true}}})
}

// Get returns a copy of the value stored under key.
func (db *DB) Get(key []byte) (value []byte, found bool, err error) {
	found, err = db.View(key, func(v []byte) error {
		value = bytes.Clone(v)
		return nil
	})
	return value, found, err
}

// View calls fn with the value stored under key, in place — in a table's
// mapping or the memtable — and reports whether the key was found; fn is not
// called when it was not. The value is valid only until fn returns, and fn
// runs under the read lock, so it must not write to the DB. An error from fn
// is View's.
func (db *DB) View(key []byte, fn func(value []byte) error) (found bool, err error) {
	if err := validateKey(key); err != nil {
		return false, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return false, ErrClosed
	}
	db.gets.Add(1)
	defer db.catchFault(debug.SetPanicOnFault(true), &err)
	e, ok := db.mem.get(key)
	for i := 0; !ok && i < len(db.tables); i++ {
		if e, ok, err = db.tables[i].get(key); err != nil {
			return false, err
		}
	}
	if !ok || e.tombstone {
		return false, nil
	}
	return true, fn(e.value)
}

var errFault = errors.New("fault reading the mapped file") // it was cut short under the map

// catchFault is deferred, with debug.SetPanicOnFault(true)'s result, by every
// read of a mapping (callbacks that see its bytes included), under db.mu. It
// restores the setting, turns a fault inside a table's mapping into that
// table's error in *err, and re-panics anything else unchanged.
func (db *DB) catchFault(old bool, err *error) {
	debug.SetPanicOnFault(old)
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		for _, t := range db.tables {
			if off := f.Addr() - uintptr(unsafe.Pointer(unsafe.SliceData(t.mapped))); off < uintptr(len(t.mapped)) {
				*err = t.badRecord(int64(off), errFault)
				return
			}
		}
	}
	panic(r)
}

// Flush persists the memtable to a new SSTable and truncates the WAL.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if db.mem.count == 0 {
		return nil
	}
	ents := make([]entry, 0, db.mem.count)
	for it := db.mem.iterate(nil); it.valid(); it.next() {
		ents = append(ents, it.entry())
	}
	num := db.nextNum
	db.nextNum++
	name := tableFileName(num)
	t, err := buildSSTable(filepath.Join(db.dir, name), num, ents, db.opts.IndexInterval)
	if err != nil {
		return err
	}
	db.tables = append([]*sstable{t}, db.tables...)
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	// The memtable contents are durable in the SSTable; start a fresh WAL.
	if err := db.log.close(); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(db.dir, walName)); err != nil {
		return err
	}
	db.log, err = openWAL(filepath.Join(db.dir, walName), db.opts.SyncWAL)
	if err != nil {
		return err
	}
	db.mem = newMemtable()
	db.stats.Flushes++
	if len(db.tables) >= db.opts.CompactAt {
		return db.compactLocked()
	}
	return nil
}

// Compact merges all SSTables into one, dropping shadowed values and
// tombstones.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.compactLocked()
}

func (db *DB) compactLocked() (err error) {
	if len(db.tables) <= 1 {
		return nil
	}
	defer db.catchFault(debug.SetPanicOnFault(true), &err)
	it := mergeIterator{tabs: make([]sstIterator, len(db.tables))}
	for i, t := range db.tables {
		it.tabs[i].seek(t, nil)
	}
	var ents []entry
	for it.pick(); it.valid(); it.next() {
		e := it.entry()
		if e.tombstone {
			continue // full compaction: nothing older can exist
		}
		// The entry lives in its table's mapping and key buffer until the
		// next step, and the mapping only until the close below.
		ents = append(ents, entry{key: bytes.Clone(e.key), value: bytes.Clone(e.value)})
	}
	if it.err != nil {
		return it.err
	}
	num := db.nextNum
	db.nextNum++
	t, err := buildSSTable(filepath.Join(db.dir, tableFileName(num)), num, ents, db.opts.IndexInterval)
	if err != nil {
		return err
	}
	old := db.tables
	db.tables = []*sstable{t}
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	for _, o := range old {
		o.close()
		os.Remove(o.path)
	}
	db.stats.Compacts++
	return nil
}

// ReplayInfo reports what WAL recovery found when the database was opened:
// how many records replayed and whether a torn tail was truncated.
func (db *DB) ReplayInfo() ReplayStats { return db.replay }

// Sync forces the WAL to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.log.sync()
}

// Stats returns a snapshot of the operation counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.stats
	s.Gets = db.gets.Load()
	s.NumTables = len(db.tables)
	for _, t := range db.tables {
		s.TableBytes += int64(len(t.mapped))
	}
	return s
}

// CheckIntegrity verifies the checksums of every live SSTable.
func (db *DB) CheckIntegrity() (err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	defer db.catchFault(debug.SetPanicOnFault(true), &err)
	for _, t := range db.tables {
		if err := t.verifyChecksum(); err != nil {
			return err
		}
	}
	return nil
}

func tableFileName(num uint64) string { return fmt.Sprintf("%08d.sst", num) }

func tableFileNum(name string) (uint64, error) {
	var num uint64
	if _, err := fmt.Sscanf(name, "%08d.sst", &num); err != nil {
		return 0, fmt.Errorf("kv: bad table file name %q: %w", name, err)
	}
	return num, nil
}

// writeManifestLocked atomically records the live table set.
func (db *DB) writeManifestLocked() error {
	var b strings.Builder
	for _, t := range db.tables {
		fmt.Fprintln(&b, filepath.Base(t.path))
	}
	tmp := filepath.Join(db.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(db.dir, manifestName))
}

func readManifest(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}
