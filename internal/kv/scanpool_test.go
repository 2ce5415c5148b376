package kv

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestScanReusesIterator holds Scan's pooled iterator to a model: scans
// over 1 to 8 tables while another goroutine writes, flushes and compacts,
// so each scan runs on cursors an earlier one used; a Scan nested in
// another's callback; a callback that panics; and a DB of more tables than
// a pooled iterator has room for. Run it under -race: an iterator that goes
// back to the pool still holding a table or a key buffer shows only under
// interleaving.
func TestScanReusesIterator(t *testing.T) {
	// Version v of prefix p is the keys p/00 .. p/(n-1), n = rows(v), each
	// valued v. One batch writes it and deletes the rest of p/00 .. p/16,
	// so a scan sees all of one version or none of it.
	rows := func(v int) int { return 3 + v%14 }
	key := func(p, k int) []byte { return fmt.Appendf(nil, "p%d/%02d", p, k) }
	write := func(db *DB, p, v int) {
		var b Batch
		for k := 0; k < 17; k++ {
			if k < rows(v) {
				b.Put(key(p, k), strconv.AppendInt(nil, int64(v), 10))
			} else {
				b.Delete(key(p, k))
			}
		}
		if err := db.Apply(&b); err != nil {
			t.Error(err)
		}
	}
	// check scans prefix p, calling each (if not nil) on every row, and
	// says how the rows differ from every version of p.
	check := func(db *DB, p int, each func()) error {
		n, ver := 0, ""
		var bad error
		err := db.Scan(fmt.Appendf(nil, "p%d/", p), func(k, v []byte) bool {
			if !bytes.Equal(k, key(p, n)) || n > 0 && string(v) != ver {
				bad = fmt.Errorf("prefix %d row %d: %q = %q after %d rows of version %s", p, n, k, v, n, ver)
				return false
			}
			ver = string(v)
			n++
			if each != nil {
				each()
			}
			return true
		})
		if err != nil || bad != nil {
			return fmt.Errorf("scan: %v, %v", err, bad)
		}
		if v, _ := strconv.Atoi(ver); n != rows(v) {
			return fmt.Errorf("prefix %d version %s: %d rows, want %d", p, ver, n, rows(v))
		}
		return nil
	}
	// versions writes every prefix at versions [from, to), flushing after
	// each eighth.
	versions := func(db *DB, from, to int) {
		for v := from; v < to; v++ {
			write(db, v%8, v)
			if v%8 == 7 {
				db.Flush()
			}
		}
	}

	t.Run("beside flush and compact", func(t *testing.T) {
		// CompactAt 9: a flush to a ninth table compacts, under the write
		// lock, so a scan sees 1 to 8 tables.
		db := openTemp(t, Options{CompactAt: 9})
		versions(db, 0, 8)
		var done atomic.Bool
		var wg sync.WaitGroup
		for r := range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := r; !done.Load(); i++ {
					if err := check(db, i%8, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		tables := make(map[int]bool)
		for v := 8; v < 400; v++ {
			write(db, v%8, v)
			if v%3 == 0 {
				db.Flush()
			}
			if v%101 == 0 {
				db.Compact()
			}
			tables[db.Stats().NumTables] = true
		}
		done.Store(true)
		wg.Wait()
		for n := 1; n <= poolCursors; n++ {
			if !tables[n] {
				t.Errorf("the writer never left %d tables (saw %v)", n, tables)
			}
		}
	})

	t.Run("nested", func(t *testing.T) {
		db := openTemp(t, Options{CompactAt: 9})
		versions(db, 0, 48) // six tables
		err := check(db, 0, func() {
			for p := 1; p < 8; p++ {
				if err := check(db, p, nil); err != nil {
					t.Errorf("inside a scan of prefix 0: %v", err)
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
	})

	t.Run("callback panic", func(t *testing.T) {
		db := openTemp(t, Options{CompactAt: 9})
		versions(db, 0, 36) // four tables and a memtable
		panicky := func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want boom", r)
				}
			}()
			db.Scan([]byte("p1/"), func(_, _ []byte) bool { panic("boom") })
		}
		for range 3 {
			panicky()
			if err := check(db, 1, nil); err != nil {
				t.Errorf("after a panic: %v", err)
			}
		}
		if n := testing.AllocsPerRun(20, panicky); n != 0 {
			t.Errorf("a scan whose callback panics made %.0f allocations: its iterator did not go back to the pool", n)
		}
		it := scanPool.Get().(*Iterator)
		if it.db != nil || it.end != nil || len(it.merge.tabs) != 0 || it.merge.mem.n != nil {
			t.Errorf("a pooled iterator still holds its DB, bound, cursors or memtable")
		}
		for i, c := range it.merge.tabs[:cap(it.merge.tabs)] {
			if c.t != nil || c.cur.key != nil || c.cur.value != nil {
				t.Errorf("pooled cursor %d holds table %p, key %q, value %q", i, c.t, c.cur.key, c.cur.value)
			}
		}
		scanPool.Put(it)
		// The panics released the read lock: a write and a flush go through.
		versions(db, 36, 40)
		db.Flush()
		if err := check(db, 1, nil); err != nil {
			t.Error(err)
		}
	})

	t.Run("more tables than a pooled iterator holds", func(t *testing.T) {
		db := openTemp(t, Options{CompactAt: 1 << 20})
		versions(db, 0, 8*(poolCursors+2))
		if n := db.Stats().NumTables; n != poolCursors+2 {
			t.Fatalf("%d tables, want %d", n, poolCursors+2)
		}
		for p := range 8 {
			if err := check(db, p, nil); err != nil {
				t.Error(err)
			}
		}
		scan := func() { db.Scan([]byte("p3/"), func(_, _ []byte) bool { return true }) }
		if n := testing.AllocsPerRun(20, scan); n < 1 {
			t.Errorf("a scan over %d tables made %.0f allocations: want its own iterator", poolCursors+2, n)
		}
		if it := scanPool.Get().(*Iterator); cap(it.merge.tabs) != poolCursors {
			t.Errorf("the pool holds an iterator with room for %d cursors, want %d", cap(it.merge.tabs), poolCursors)
		} else {
			scanPool.Put(it)
		}
	})
}
