package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modelKeys is a key space built to stress prefix compression and range
// bounds: long shared prefixes (edge-key shaped), keys that are prefixes of
// one another, and neighbours that differ by an empty suffix or one 0x00 /
// 0xff byte.
func modelKeys() []string {
	var keys []string
	for v := 0; v < 6; v++ {
		for d := 0; d < 8; d++ {
			keys = append(keys, fmt.Sprintf("e/%010d/follows/%010d", v, d*7))
		}
		keys = append(keys, fmt.Sprintf("e/%010d/follows/", v), fmt.Sprintf("e/%010d", v))
	}
	for n := 1; n <= 6; n++ {
		keys = append(keys, strings.Repeat("p", n))
	}
	for _, base := range []string{"k", "k\x00", "k\x00\x00", "k\xff", "k\xff\xff", "k\xfe\xff", "l"} {
		keys = append(keys, base)
	}
	return keys
}

// TestReadPathModel drives random Put/Delete/Flush/Compact/reopen against a
// Go map and, after every step, checks point gets of present, absent and
// deleted keys, prefix scans and bounded iterators — at index intervals
// where every record, every other record and every 16th restarts the key.
func TestReadPathModel(t *testing.T) {
	keys := modelKeys()
	absent := []string{"a", "e/", "e/0000000003/follows/0000000001", "k\x00\x01", "pppppppp", "zz"}
	prefixes := []string{"e/0000000002/follows/", "e/0000000004", "p", "ppp", "k", "k\x00", "k\xff", "e/", "q"}
	steps := 400
	if testing.Short() {
		steps = 120
	}
	for _, interval := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("interval=%d", interval), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{IndexInterval: interval, CompactAt: 5}
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			r := rand.New(rand.NewSource(int64(1000 + interval)))
			model := map[string]string{}
			deleted := map[string]bool{}
			for step := 0; step < steps; step++ {
				key := keys[r.Intn(len(keys))]
				switch op := r.Intn(20); {
				case op < 3:
					if err := db.Delete([]byte(key)); err != nil {
						t.Fatal(err)
					}
					delete(model, key)
					deleted[key] = true
				case op == 3:
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				case op == 4 && step%3 == 0:
					if err := db.Compact(); err != nil {
						t.Fatal(err)
					}
				case op == 5 && step%3 == 0:
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(dir, opts); err != nil {
						t.Fatal(err)
					}
				default:
					// Mostly small values; now and then one that straddles
					// or outgrows a 4 KiB page.
					n := r.Intn(40)
					if r.Intn(25) == 0 {
						n = page/2 + r.Intn(2*page)
					}
					val := fmt.Sprintf("%d:%s", step, strings.Repeat("v", n))
					if err := db.Put([]byte(key), []byte(val)); err != nil {
						t.Fatal(err)
					}
					model[key] = val
					delete(deleted, key)
				}
				checkAgainstModel(t, db, step, model, deleted, absent, prefixes, r)
			}
		})
	}
}

func checkAgainstModel(t *testing.T, db *DB, step int, model map[string]string, deleted map[string]bool, absent, prefixes []string, r *rand.Rand) {
	t.Helper()
	for k, want := range model {
		if v, ok, err := db.Get([]byte(k)); err != nil || !ok || string(v) != want {
			t.Fatalf("step %d: Get(%q) = %d bytes, %v, %v; want %d bytes", step, k, len(v), ok, err, len(want))
		}
	}
	for k := range deleted {
		if _, ok, err := db.Get([]byte(k)); err != nil || ok {
			t.Fatalf("step %d: Get(deleted %q) = %v, %v", step, k, ok, err)
		}
	}
	for _, k := range absent {
		if _, ok, err := db.Get([]byte(k)); err != nil || ok {
			t.Fatalf("step %d: Get(absent %q) = %v, %v", step, k, ok, err)
		}
	}
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, p := range prefixes {
		var want, got []string
		for _, k := range sorted {
			if strings.HasPrefix(k, p) {
				want = append(want, k+"="+model[k])
			}
		}
		err := db.Scan([]byte(p), func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		})
		if err != nil || !equalStrings(got, want) {
			t.Fatalf("step %d: Scan(%q) = %d rows, %v; want %d", step, p, len(got), err, len(want))
		}
	}
	// One bounded iterator between two random keys of the model's space,
	// and one open on each side.
	lo, hi := sorted, sorted
	if len(sorted) > 0 {
		a, b := r.Intn(len(sorted)), r.Intn(len(sorted))
		if a > b {
			a, b = b, a
		}
		lo, hi = sorted[a:], sorted[:b]
		checkRange(t, db, step, model, sorted[a:b], []byte(sorted[a]), []byte(sorted[b]))
		checkRange(t, db, step, model, lo, []byte(sorted[a]), nil)
		checkRange(t, db, step, model, hi, nil, []byte(sorted[b]))
	}
	checkRange(t, db, step, model, sorted, nil, nil)
}

func checkRange(t *testing.T, db *DB, step int, model map[string]string, want []string, start, end []byte) {
	t.Helper()
	it, err := db.NewIterator(IterOptions{Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(want) || string(it.Key()) != want[i] || string(it.Value()) != model[want[i]] {
			t.Fatalf("step %d: range [%q, %q) row %d = %q, want one of %d rows", step, start, end, i, it.Key(), len(want))
		}
		i++
	}
	if err := it.Err(); err != nil || i != len(want) {
		t.Fatalf("step %d: range [%q, %q) gave %d rows, %v; want %d", step, start, end, i, err, len(want))
	}
}

// TestIteratorEntriesValidUntilNext holds Key and Value across calls on a
// merge of three sources (memtable and two tables) that all hold every key:
// the slices belong to the sources' buffers, and must change only on Next.
func TestIteratorEntriesValidUntilNext(t *testing.T) {
	db := openTemp(t, Options{IndexInterval: 2})
	const n = 300 // several windows per table
	key := func(i int) []byte { return []byte(fmt.Sprintf("shared/prefix/%05d", i)) }
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), []byte(fmt.Sprintf("gen%d/%05d/%s", gen, i, strings.Repeat("x", 40)))); err != nil {
				t.Fatal(err)
			}
		}
		if gen < 2 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := db.Stats(); s.NumTables != 2 || db.mem.count != n {
		t.Fatalf("want two tables and a full memtable, got %+v", s)
	}
	walk := func() {
		t.Helper()
		it, err := db.NewIterator(IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for i := 0; i < n; i++ {
			if !it.Valid() {
				t.Fatalf("iterator ended at %d: %v", i, it.Err())
			}
			k, v := it.Key(), it.Value()
			wantK, wantV := string(key(i)), fmt.Sprintf("gen2/%05d/%s", i, strings.Repeat("x", 40))
			// Calls that do not advance must not disturb what was handed out.
			for j := 0; j < 3; j++ {
				_, _, _ = it.Valid(), it.Key(), it.Value()
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if string(k) != wantK || string(v) != wantV {
				t.Fatalf("row %d = %q → %q, want %q → %q", i, k, v, wantK, wantV)
			}
			if &k[0] != &it.Key()[0] || &v[0] != &it.Value()[0] {
				t.Fatalf("row %d: Key/Value moved without Next", i)
			}
			it.Next()
		}
		if it.Valid() || it.Err() != nil {
			t.Fatalf("iterator should end cleanly, valid=%v err=%v", it.Valid(), it.Err())
		}
	}
	walk()
	// And with the winner in a read window too: three tables, no memtable.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	walk()

	// The same through an older table's entries: shadowed everywhere but in
	// the keys the newer sources have deleted from under them.
	for i := 0; i < n; i += 2 {
		db.Delete(key(i))
	}
	var rows int
	err := db.Scan([]byte("shared/"), func(k, v []byte) bool {
		if want := fmt.Sprintf("gen2/%05d/", 2*rows+1); !strings.HasPrefix(string(v), want) {
			t.Fatalf("row %d = %q → %.12q, want value %q…", rows, k, v, want)
		}
		rows++
		return true
	})
	if err != nil || rows != n/2 {
		t.Fatalf("scan after deletes: %d rows, %v", rows, err)
	}
}

// buildTable writes ents to a fresh table in the test's directory.
func buildTable(t testing.TB, name string, ents []entry, interval int) *sstable {
	t.Helper()
	tbl, err := buildSSTable(filepath.Join(t.TempDir(), name), 1, ents, interval)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.close() })
	return tbl
}

// checkTable reads ents back every way the table offers: a full iteration,
// a seek to every key, and a get of every key.
func checkTable(t *testing.T, tbl *sstable, ents []entry) {
	t.Helper()
	var it sstIterator
	it.seek(tbl, nil)
	for i, want := range ents {
		if !it.ok || !bytes.Equal(it.cur.key, want.key) || !bytes.Equal(it.cur.value, want.value) {
			t.Fatalf("iterate: entry %d (%q) wrong or missing: valid=%v err=%v", i, want.key, it.ok, it.err)
		}
		it.next()
	}
	if it.ok || it.err != nil {
		t.Fatalf("iterate: want a clean end, valid=%v err=%v", it.ok, it.err)
	}
	for i, want := range ents {
		it.seek(tbl, want.key)
		if !it.ok || !bytes.Equal(it.cur.key, want.key) || !bytes.Equal(it.cur.value, want.value) {
			t.Fatalf("seek: entry %d (%q) wrong or missing: err=%v", i, want.key, it.err)
		}
		e, ok, err := tbl.get(want.key)
		if err != nil || !ok || !bytes.Equal(e.value, want.value) {
			t.Fatalf("get: entry %d (%q) = %d bytes, %v, %v", i, want.key, len(e.value), ok, err)
		}
	}
	if len(tbl.data) > 0 && !bytes.Equal(tbl.maxKey, ents[len(ents)-1].key) {
		t.Fatalf("maxKey = %q, want %q", tbl.maxKey, ents[len(ents)-1].key)
	}
}

// page is the unit TestWindowBoundaries lays records against: the read
// window's size before PR 26, a memory page's now.
const page = 4 << 10

// TestWindowBoundaries puts records where a 4 KiB page of the mapping ends:
// straddling it, far larger than it, in a table smaller than it, and with
// the last record ending exactly at the data section's end.
func TestWindowBoundaries(t *testing.T) {
	val := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	cases := map[string][]entry{
		"smaller than one window": {
			{key: []byte("a"), value: []byte("1")},
			{key: []byte("ab"), value: nil},
			{key: []byte("b"), value: val(100, 'b')},
		},
		"records straddle every window end": func() (ents []entry) {
			for i := 0; i < 200; i++ { // ≈ 150-byte records: 4096 is never a record boundary for long
				ents = append(ents, entry{key: []byte(fmt.Sprintf("key/%06d", i)), value: val(131+i%7, byte('a'+i%26))})
			}
			return ents
		}(),
		"a 64 KiB value between small ones": {
			{key: []byte("k1"), value: val(10, 'x')},
			{key: []byte("k2"), value: val(64<<10, 'y')},
			{key: []byte("k3"), value: val(10, 'z')},
			{key: []byte("k4"), value: val(page, 'w')},
			{key: []byte("k5"), value: nil, tombstone: true},
		},
	}
	// A table whose data section is exactly one page, and one of exactly
	// two: the last record ends where the page does.
	for _, windows := range []int{1, 2} {
		var ents []entry
		size := 0
		for i := 0; size < windows*page; i++ {
			e := entry{key: []byte(fmt.Sprintf("%04d", i)), value: val(50, 'v')}
			rec := 1 + 3 + len(e.key) + len(e.value) // op, three 1-byte lengths, interval 1 shares nothing
			if rest := windows*page - size; rest < 2*rec {
				e.value = val(rest-1-3-len(e.key), 'e')
				if len(e.value) > 127 {
					t.Fatalf("test arithmetic: last value %d needs a 2-byte length", len(e.value))
				}
				rec = rest
			}
			ents = append(ents, e)
			size += rec
		}
		cases[fmt.Sprintf("data section of exactly %d windows", windows)] = ents
	}
	for name, ents := range cases {
		for _, interval := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("%s/interval=%d", name, interval), func(t *testing.T) {
				tbl := buildTable(t, "w.sst", ents, interval)
				if strings.HasPrefix(name, "data section of exactly") && interval == 1 && len(tbl.data)%page != 0 {
					t.Fatalf("data section of %d bytes, want a multiple of %d", len(tbl.data), page)
				}
				checkTable(t, tbl, ents)
			})
		}
	}
}

// TestOverlapsNeverSkipsAHolder: for every pair of bounds drawn from around
// the table's keys, a table skipped by overlaps holds no key in range —
// checked against what an unskipped iteration of the table finds.
func TestOverlapsNeverSkipsAHolder(t *testing.T) {
	var ents []entry
	for _, k := range []string{"b", "b\x00", "bb", "c", "c\xff", "d"} {
		ents = append(ents, entry{key: []byte(k), value: []byte("v")})
	}
	tbl := buildTable(t, "o.sst", ents, 2)
	bounds := [][]byte{nil}
	for _, k := range []string{"a", "b", "b\x00", "b\x00\x00", "bb", "bc", "c", "c\xff", "c\xff\x00", "d", "d\x00", "e"} {
		bounds = append(bounds, []byte(k))
	}
	for _, start := range bounds {
		for _, end := range bounds {
			holds := false
			for _, e := range ents {
				if (start == nil || bytes.Compare(e.key, start) >= 0) && (end == nil || bytes.Compare(e.key, end) < 0) {
					holds = true
				}
			}
			if got := tbl.overlaps(start, end); holds && !got {
				t.Errorf("overlaps(%q, %q) = false, but the table holds a key in range", start, end)
			}
		}
	}
	if empty := buildTable(t, "e.sst", nil, 2); empty.overlaps(nil, nil) {
		t.Error("an empty table overlaps nothing")
	}

	// Through the DB: the answer with tables skipped equals the model's.
	db := openTemp(t, Options{})
	for i, batch := range [][]string{{"a1", "a2"}, {"m1", "m2"}, {"z1", "z2"}} {
		for _, k := range batch {
			db.Put([]byte(k), []byte{byte(i)})
		}
		db.Flush()
	}
	for _, c := range []struct {
		start, end string
		want       string
	}{{"", "", "a1 a2 m1 m2 z1 z2"}, {"a2", "m2", "a2 m1"}, {"a3", "m1", ""}, {"m2", "", "m2 z1 z2"}, {"", "a1", ""}, {"z2", "zz", "z2"}} {
		opts := IterOptions{}
		if c.start != "" {
			opts.Start = []byte(c.start)
		}
		if c.end != "" {
			opts.End = []byte(c.end)
		}
		it, err := db.NewIterator(opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for ; it.Valid(); it.Next() {
			got = append(got, string(it.Key()))
		}
		it.Close()
		if strings.Join(got, " ") != c.want {
			t.Errorf("[%q, %q) = %v, want %q", c.start, c.end, got, c.want)
		}
	}
}

// TestOldFormatRefused: there is one reader; a gtss2 file is turned away at
// open with an error naming both versions.
func TestOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"))
	db.Flush()
	db.Close()
	path := filepath.Join(dir, tableFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)-5:], "gtss2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "gtss2") || !strings.Contains(err.Error(), "gtss3") {
		t.Fatalf("Open of a gtss2 table = %v, want an error naming gtss2 and gtss3", err)
	}
}

// TestReadErrorIsNotAShortAnswer: a table that cannot be read through must
// fail Scan, Get and an iterator's Err — a scan that stops early and
// returns nil quietly loses edges.
func TestReadErrorIsNotAShortAnswer(t *testing.T) {
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("e/%06d", i)) }
	damage := map[string]func(t *testing.T, tbl *sstable){
		// The file loses its second half under the open table.
		"truncated": func(t *testing.T, tbl *sstable) {
			if err := os.Truncate(tbl.path, int64(len(tbl.data)/2)); err != nil {
				t.Fatal(err)
			}
		},
		// A record header in the middle of the data section turns to
		// garbage: an op that does not exist and lengths past any bound.
		"flipped": func(t *testing.T, tbl *sstable) {
			off := tbl.index[len(tbl.index)/2].offset
			f, err := os.OpenFile(tbl.path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xa5, 0xff, 0xff, 0xff, 0xff, 0x7f}, off); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			db := openTemp(t, Options{})
			for i := 0; i < n; i++ {
				db.Put(key(i), []byte("edge-value"))
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Put([]byte("a-newer-key-in-the-memtable"), []byte("v"))
			hurt(t, db.tables[0])

			rows := 0
			if err := db.Scan([]byte("e/"), func(_, _ []byte) bool { rows++; return true }); err == nil {
				t.Errorf("Scan returned nil after %d of %d rows", rows, n)
			}
			it, err := db.NewIterator(IterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for rows = 0; it.Valid(); it.Next() {
				rows++
			}
			if it.Err() == nil {
				t.Errorf("iterator ended after %d rows with no error", rows)
			}
			it.Close()
			// Every key is either found or an error: none may be reported
			// absent. The damaged region must produce at least one error.
			errs := 0
			for i := 0; i < n; i++ {
				if _, ok, err := db.Get(key(i)); err != nil {
					errs++
				} else if !ok {
					t.Fatalf("Get(%q) reported absent", key(i))
				}
			}
			if errs == 0 {
				t.Error("no Get failed")
			}
		})
	}
}

// TestZeroedIntervalIsAnError: a stretch of a table zeroed on disk — what a
// crash or a hole can leave — fails the reads that cross it. Zeros parse as
// puts of the empty key (op 0, all lengths 0), so without the empty-key rule
// a Get there reports its key absent and a scan returns rows nobody wrote,
// with a nil error.
func TestZeroedIntervalIsAnError(t *testing.T) {
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("e/%06d", i)) }
	db := openTemp(t, Options{})
	for i := 0; i < n; i++ {
		db.Put(key(i), []byte("edge-value"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// One whole index interval whose length is a multiple of 4, so that
	// every byte of it would belong to some empty put.
	tbl := db.tables[0]
	var lo, hi int64
	for i := 1; i+1 < len(tbl.index) && (hi == 0 || (hi-lo)%4 != 0); i++ {
		lo, hi = tbl.index[i].offset, tbl.index[i+1].offset
	}
	if (hi-lo)%4 != 0 {
		t.Fatal("no index interval of a length divisible by 4")
	}
	f, err := os.OpenFile(tbl.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, hi-lo), lo); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rows := 0
	if err := db.Scan([]byte("e/"), func(_, _ []byte) bool { rows++; return true }); err == nil {
		t.Errorf("Scan returned %d rows of %d and no error", rows, n)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if _, ok, err := db.Get(key(i)); err != nil {
			errs++
		} else if !ok {
			t.Fatalf("Get(%q) reported absent", key(i))
		}
	}
	if errs == 0 {
		t.Error("no Get failed")
	}
}

// TestReadPathAllocs pins what a read costs in objects: a point hit copies
// its value and nothing else, a View of it nothing at all, a miss the Bloom
// filter catches is free, and a scan nothing whatever the number of tables:
// its Iterator, with the table cursors, comes from scanPool.
func TestReadPathAllocs(t *testing.T) {
	db := openTemp(t, Options{})
	edge := func(v, d int) []byte { return []byte(fmt.Sprintf("e/%06d/follows/%06d", v, d)) }
	// Two tables that both hold half of every vertex's 32 edges.
	for gen := 0; gen < 2; gen++ {
		for v := 0; v < 200; v++ {
			for d := gen; d < 32; d += 2 {
				db.Put(edge(v, d), []byte("edge-value"))
			}
		}
		db.Flush()
	}
	hit, miss, prefix := edge(100, 7), edge(100, 40), []byte("e/000100/follows/")
	var sink []byte
	if n := testing.AllocsPerRun(100, func() { sink, _, _ = db.Get(hit) }); n > 1 || string(sink) != "edge-value" {
		t.Errorf("Get hit: %.0f allocs (value %q), want 1, the value's copy", n, sink)
	}
	view := func(v []byte) error { sink = v; return nil }
	if n := testing.AllocsPerRun(100, func() { db.View(hit, view) }); n != 0 || string(sink) != "edge-value" {
		t.Errorf("View hit: %.0f allocs (value %q), want 0", n, sink)
	}
	if n := testing.AllocsPerRun(100, func() { sink, _, _ = db.Get(miss) }); n != 0 || sink != nil {
		t.Errorf("Get miss: %.0f allocs, want 0", n)
	}
	rows := 0
	scan := func() {
		rows = 0
		db.Scan(prefix, func(_, _ []byte) bool { rows++; return true })
	}
	two := testing.AllocsPerRun(100, scan)
	if two != 0 || rows != 32 {
		t.Errorf("32-edge scan over two tables: %.0f allocs, %d rows; want 0, 32", two, rows)
	}
	// A third table whose key range spans the prefix with nothing under it
	// is one more cursor in the same pooled object; a fourth whose range
	// misses the prefix is not opened at all.
	db.Put(edge(0, 99), []byte("edge-value"))
	db.Put(edge(199, 99), []byte("edge-value"))
	db.Flush()
	for v := 300; v < 400; v++ {
		db.Put(edge(v, 0), []byte("edge-value"))
	}
	db.Flush()
	if four := testing.AllocsPerRun(100, scan); four != 0 || rows != 32 || db.Stats().NumTables != 4 {
		t.Errorf("same scan with an overlapping third and a non-overlapping fourth table: %.0f allocs, want 0; %d rows", four, rows)
	}
}

// FuzzSSTableRecords feeds arbitrary bytes to the record parser and, as the
// data section of an otherwise well-formed table, to open + iterate + get:
// no panic, no key rebuilt from bytes it does not have, and every walk ends
// either cleanly at the section's end or with an error.
func FuzzSSTableRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{walOpPut, 0, 1, 1, 'a', '1'})
	f.Add([]byte{walOpPut, 0, 2, 0, 'a', 'b', walOpDelete, 1, 1, 0, 'c', walOpPut, 2, 0, 1, 'v'})
	f.Add([]byte{walOpPut, 5, 1, 0, 'a'})                      // shares more than there is
	f.Add([]byte{walOpPut, 0, 1, 0xff, 0xff, 0xff, 0x7f, 'a'}) // value far past the end
	f.Add([]byte{7, 0, 1, 0, 'a'})                             // no such op
	f.Add([]byte{walOpPut, 0x80})                              // header cut inside a varint
	f.Add(make([]byte, 16))                                    // zeroed: four empty puts, were it not for the key rule
	f.Fuzz(func(t *testing.T, data []byte) {
		// The parser alone, walked the way the iterator walks it.
		var key []byte
		for b := data; len(b) > 0; {
			k, v, n, err := parseRecord(b, key)
			if err != nil {
				break
			}
			if len(k) == 0 || n > int64(len(b)) || len(k) > len(key)+int(n) || int64(len(k)-len(key)+len(v)) >= n {
				t.Fatalf("record of %d bytes after a %d-byte key yields a %d-byte key and a %d-byte value", n, len(key), len(k), len(v))
			}
			key, b = k, b[n:]
		}

		// The same bytes as a table's data section, one index sample at 0.
		path := filepath.Join(t.TempDir(), "f.sst")
		file := append([]byte(nil), data...)
		file = append(file, 0, 0) // index: empty key at offset 0
		filter := newBloomFilter(1).encode()
		file = append(file, filter...)
		var footer [footerSize]byte
		footer[0] = byte(len(data))
		footer[1] = byte(len(data) >> 8)
		footer[2] = byte(len(data) >> 16)
		footer[8] = 1
		footer[16] = byte(len(filter))
		copy(footer[28:], sstMagic[:])
		file = append(file, footer[:]...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := openSSTable(path, 1)
		if err != nil {
			return
		}
		defer tbl.close()
		var it sstIterator
		for it.seek(tbl, nil); it.ok; it.next() {
			if len(it.cur.key)+len(it.cur.value) > len(tbl.data) {
				t.Fatalf("entry larger than the data section")
			}
		}
		if it.err == nil && it.off != int64(len(tbl.data)) {
			t.Fatalf("walk ended cleanly at %d of %d", it.off, len(tbl.data))
		}
		tbl.get([]byte("a"))
	})
}
