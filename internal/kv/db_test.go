package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get a = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("b")); ok {
		t.Fatal("absent key should not be found")
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("deleted key should not be found")
	}
}

func TestOverwrite(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 5; i++ {
		if err := db.Put([]byte("k"), []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, _ := db.Get([]byte("k"))
	if !ok || string(v) != "4" {
		t.Fatalf("got %q, want last write", v)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put(nil, []byte("v")); err != ErrEmptyKey {
		t.Errorf("Put(nil) = %v, want ErrEmptyKey", err)
	}
	if err := db.Delete(nil); err != ErrEmptyKey {
		t.Errorf("Delete(nil) = %v, want ErrEmptyKey", err)
	}
	if _, _, err := db.Get(nil); err != ErrEmptyKey {
		t.Errorf("Get(nil) = %v, want ErrEmptyKey", err)
	}
}

func TestClosedDB(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	if err := db.Put([]byte("a"), nil); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := db.Get([]byte("a")); err != ErrClosed {
		t.Errorf("Get after close = %v", err)
	}
	if _, err := db.NewIterator(IterOptions{}); err != ErrClosed {
		t.Errorf("NewIterator after close = %v", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Errorf("Flush after close = %v", err)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if err := db.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite some after flush so reads must merge memtable + table.
	for i := 0; i < 100; i += 3 {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if err := db.Put(key, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		want := fmt.Sprintf("val-%d", i)
		if i%3 == 0 {
			want = "new"
		}
		v, ok, err := db.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q %v %v, want %q", key, v, ok, err, want)
		}
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	db := openTemp(t, Options{})
	if err := db.Put([]byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("x")); ok {
		t.Fatal("tombstone in memtable must shadow flushed value")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("x")); ok {
		t.Fatal("tombstone in newer table must shadow older table")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("x")); ok {
		t.Fatal("compaction must not resurrect deleted key")
	}
}

func TestIteratorOrderAndBounds(t *testing.T) {
	db := openTemp(t, Options{})
	keys := []string{"a", "ab", "abc", "b", "ba", "c"}
	for _, k := range keys {
		if err := db.Put([]byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(opts IterOptions) []string {
		it, err := db.NewIterator(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var got []string
		for it.Valid() {
			got = append(got, string(it.Key()))
			if want := "v" + string(it.Key()); string(it.Value()) != want {
				t.Errorf("value for %s = %q, want %q", it.Key(), it.Value(), want)
			}
			it.Next()
		}
		return got
	}
	if got := collect(IterOptions{}); !equalStrings(got, keys) {
		t.Errorf("full scan = %v", got)
	}
	if got := collect(IterOptions{Prefix: []byte("a")}); !equalStrings(got, []string{"a", "ab", "abc"}) {
		t.Errorf("prefix a = %v", got)
	}
	if got := collect(IterOptions{Start: []byte("ab"), End: []byte("ba")}); !equalStrings(got, []string{"ab", "abc", "b"}) {
		t.Errorf("range [ab,ba) = %v", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanEarlyStop(t *testing.T) {
	db := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("p/%d", i)), []byte("v"))
	}
	var n int
	err := db.Scan([]byte("p/"), func(k, v []byte) bool {
		n++
		return n < 3
	})
	if err != nil || n != 3 {
		t.Fatalf("Scan stopped after %d (err %v), want 3", n, err)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in, want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xff}, []byte{0x02}},
		{[]byte{0xff, 0xff}, nil},
	}
	for _, c := range cases {
		if got := prefixEnd(nil, c.in); !bytes.Equal(got, c.want) {
			t.Errorf("prefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k10"))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close the file handles without flushing memtable.
	db.mu.Lock()
	db.log.close()
	db.closeTables()
	db.closed = true
	db.mu.Unlock()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%02d", i)
		v, ok, err := db2.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			if ok {
				t.Errorf("deleted key %s resurrected after recovery", key)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("key %s = %q %v after recovery", key, v, ok)
		}
	}
}

func TestRecoveryAfterFlushAndRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("flushed"), []byte("1"))
	db.Flush()
	db.Put([]byte("walonly"), []byte("2"))
	db.Sync()
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, want := range map[string]string{"flushed": "1", "walonly": "2"} {
		v, ok, _ := db2.Get([]byte(k))
		if !ok || string(v) != want {
			t.Errorf("%s = %q %v, want %q", k, v, ok, want)
		}
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("good"), []byte("1"))
	db.Sync()
	db.Close()
	// Append garbage — a torn record from a crash mid-write.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, ok, _ := db2.Get([]byte("good"))
	if !ok || string(v) != "1" {
		t.Fatal("record before the tear must survive")
	}
}

func TestCorruptWALRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Sync()
	db.Close()
	// Flip a byte in the middle of the log: record "b" becomes corrupt.
	path := filepath.Join(dir, walName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok, _ := db2.Get([]byte("a")); !ok {
		t.Error("first record should replay")
	}
	if _, ok, _ := db2.Get([]byte("b")); ok {
		t.Error("corrupt record should not replay")
	}
}

func TestAutoFlushOnMemtableSize(t *testing.T) {
	db := openTemp(t, Options{MemtableBytes: 1 << 10})
	big := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 20; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), big)
	}
	if s := db.Stats(); s.Flushes == 0 {
		t.Error("expected automatic flushes from small memtable")
	}
	for i := 0; i < 20; i++ {
		v, ok, _ := db.Get([]byte(fmt.Sprintf("k%d", i)))
		if !ok || !bytes.Equal(v, big) {
			t.Fatalf("k%d lost across auto flush", i)
		}
	}
}

func TestAutoCompaction(t *testing.T) {
	db := openTemp(t, Options{CompactAt: 3})
	for round := 0; round < 5; round++ {
		db.Put([]byte(fmt.Sprintf("r%d", round)), []byte("v"))
		db.Flush()
	}
	s := db.Stats()
	if s.Compacts == 0 {
		t.Error("expected automatic compaction")
	}
	if s.NumTables >= 3 {
		t.Errorf("table count %d should stay below CompactAt", s.NumTables)
	}
	for round := 0; round < 5; round++ {
		if _, ok, _ := db.Get([]byte(fmt.Sprintf("r%d", round))); !ok {
			t.Errorf("r%d lost in compaction", round)
		}
	}
}

func TestCheckIntegrity(t *testing.T) {
	db := openTemp(t, Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Flush()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("fresh table should verify: %v", err)
	}
}

func TestCheckIntegrityDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte("v"), 50))
	}
	db.Flush()
	db.Close()
	// Corrupt a byte inside the data section of the table.
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("want 1 table, got %v", names)
	}
	data, _ := os.ReadFile(names[0])
	data[100] ^= 0xff
	os.WriteFile(names[0], data, 0o644)

	db2, err := Open(dir, Options{})
	if err != nil {
		// Corruption may already surface at open (index/maxKey scan).
		return
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err == nil {
		t.Error("CheckIntegrity should detect the flipped byte")
	}
}

func TestStatsCounters(t *testing.T) {
	db := openTemp(t, Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Delete([]byte("a"))
	db.Get([]byte("a"))
	s := db.Stats()
	if s.Puts != 1 || s.Deletes != 1 || s.Gets != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openTemp(t, Options{MemtableBytes: 8 << 10})
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("k%04d", rnd.Intn(n)))
				if v, ok, err := db.Get(k); err != nil {
					t.Errorf("Get: %v", err)
				} else if ok && !bytes.HasPrefix(v, []byte("v")) {
					t.Errorf("bad value %q", v)
				}
			}
		}(int64(r))
	}
	wg.Wait()
}

// TestModelEquivalenceQuick drives the DB with random operations and checks
// point reads and full scans against a plain map model.
func TestModelEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "kvq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		db, err := Open(dir, Options{MemtableBytes: 1 << 10, CompactAt: 3})
		if err != nil {
			return false
		}
		defer db.Close()
		model := map[string]string{}
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("k%02d", r.Intn(40))
			switch r.Intn(10) {
			case 0:
				if err := db.Delete([]byte(key)); err != nil {
					return false
				}
				delete(model, key)
			case 1:
				if err := db.Flush(); err != nil {
					return false
				}
			default:
				val := fmt.Sprintf("v%d", r.Int63())
				if err := db.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				model[key] = val
			}
		}
		// Point reads.
		for k, want := range model {
			v, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(v) != want {
				return false
			}
		}
		// Full ordered scan equals sorted model.
		var wantKeys []string
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		var gotKeys []string
		err = db.Scan(nil, func(k, v []byte) bool {
			gotKeys = append(gotKeys, string(k))
			if model[string(k)] != string(v) {
				gotKeys = append(gotKeys, "MISMATCH")
			}
			return true
		})
		if err != nil {
			return false
		}
		return equalStrings(gotKeys, wantKeys)
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMemtableRandomOrderQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newMemtable()
		model := map[string]string{}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("%03d", r.Intn(100))
			v := fmt.Sprintf("%d", r.Int63())
			m.set(entry{key: []byte(k), value: []byte(v)})
			model[k] = v
		}
		if m.count != len(model) {
			return false
		}
		var prev []byte
		for it := m.iterate(nil); it.valid(); it.next() {
			e := it.entry()
			if prev != nil && compareKeys(prev, e.key) >= 0 {
				return false // order violation
			}
			if model[string(e.key)] != string(e.value) {
				return false
			}
			prev = append(prev[:0], e.key...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSSTableEmptyAndSingle(t *testing.T) {
	dir := t.TempDir()
	// Empty table.
	te, err := buildSSTable(filepath.Join(dir, "e.sst"), 1, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer te.close()
	if _, ok, _ := te.get([]byte("x")); ok {
		t.Error("empty table should find nothing")
	}
	// Single entry.
	ts, err := buildSSTable(filepath.Join(dir, "s.sst"), 2,
		[]entry{{key: []byte("only"), value: []byte("1")}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	e, ok, err := ts.get([]byte("only"))
	if err != nil || !ok || string(e.value) != "1" {
		t.Fatalf("single get = %v %v %v", e, ok, err)
	}
	if _, ok, _ := ts.get([]byte("a")); ok {
		t.Error("below-range get should miss")
	}
	if _, ok, _ := ts.get([]byte("z")); ok {
		t.Error("above-range get should miss")
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 128)
	const n = 10000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key-%09d", i%n)))
	}
}

func BenchmarkPrefixScan(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for v := 0; v < 100; v++ {
		for e := 0; e < 16; e++ {
			db.Put([]byte(fmt.Sprintf("e/%03d/read/%03d", v, e)), []byte("edge"))
		}
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := []byte(fmt.Sprintf("e/%03d/read/", i%100))
		db.Scan(prefix, func(k, v []byte) bool { return true })
	}
}

// TestOpenRemovesOrphanTables: a process killed between compaction's manifest
// rename and its removal of the merged tables leaves them on disk, named by no
// manifest; one killed between writing MANIFEST.tmp and renaming it leaves the
// tmp file; one killed after a flush built its table and before the manifest
// named it leaves that table, whose entries are still in the WAL. Open
// removes all of them: the directory then holds the manifest, the WAL and the
// tables the manifest names. Every key reads its latest value, a deleted one
// stays deleted, and the next table takes a number no file present had.
func TestOpenRemovesOrphanTables(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		db.Put([]byte("shared"), []byte(fmt.Sprint(i)))
		db.Flush()
	}
	db.Delete([]byte("k0"))
	db.Flush()
	merged := map[string][]byte{}
	files, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		merged[filepath.Base(f)] = data
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("late"), []byte("wal"))
	db.Sync()
	db.Close()

	// The states the kills leave, all at once.
	for name, data := range merged {
		os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}
	os.WriteFile(filepath.Join(dir, tableFileName(9)), merged[tableFileName(1)], 0o644)
	os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte(tableFileName(9)+"\n"), 0o644)

	db, err = Open(dir, Options{CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	live, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{manifestName, walName}, live...)
	sort.Strings(want)
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Errorf("after Open the directory holds %v, want %v", got, want)
	}
	for k, v := range map[string]string{"k1": "v", "k2": "v", "shared": "2", "late": "wal"} {
		if got, ok, err := db.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Errorf("%s = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	if _, ok, _ := db.Get([]byte("k0")); ok {
		t.Error("deleted k0 is back")
	}
	db.Put([]byte("next"), []byte("1"))
	db.Flush()
	if _, err := os.Stat(filepath.Join(dir, tableFileName(10))); err != nil {
		t.Errorf("the next table is not numbered past the orphans: %v in %v", err, dirNames(t, dir))
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}
