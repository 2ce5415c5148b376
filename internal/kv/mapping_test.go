package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompactWhileReading: four readers Get, View and Scan against a fixed
// model while a writer rewrites the same contents into new tables — flushes,
// and compactions that unmap the tables the readers were just reading. Every
// answer must equal the model; under -race this also checks that no reader
// touches a table's bytes outside the read lock.
func TestCompactWhileReading(t *testing.T) {
	db := openTemp(t, Options{MemtableBytes: 4 << 10, CompactAt: 3, IndexInterval: 4})
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("m/%02d/%04d", i%7, i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", i%40))) }
	want := map[string][]string{} // prefix -> "key=value" rows in key order
	for i := 0; i < n; i++ {
		db.Put(key(i), val(i))
		p := string(key(i)[:len("m/00")])
		want[p] = append(want[p], string(key(i))+"="+string(val(i)))
	}
	for _, rows := range want {
		sort.Strings(rows)
	}
	db.Flush()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for reads := 0; !stop.Load() || reads < 50; reads++ {
				i := rnd.Intn(n)
				if v, ok, err := db.Get(key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Errorf("Get(%q) = %q, %v, %v", key(i), v, ok, err)
					return
				}
				var seen []byte
				ok, err := db.View(key(i), func(v []byte) error { seen = append(seen[:0], v...); return nil })
				if err != nil || !ok || !bytes.Equal(seen, val(i)) {
					t.Errorf("View(%q) = %q, %v, %v", key(i), seen, ok, err)
					return
				}
				if _, ok, err := db.Get([]byte(fmt.Sprintf("m/%02d/%04da", i%7, i))); err != nil || ok {
					t.Errorf("Get(absent) = %v, %v", ok, err)
					return
				}
				p := fmt.Sprintf("m/%02d", rnd.Intn(7))
				var got []string
				err = db.Scan([]byte(p), func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return true
				})
				if err != nil || !equalStrings(got, want[p]) {
					t.Errorf("Scan(%q) = %d rows, %v; want %d", p, len(got), err, len(want[p]))
					return
				}
			}
		}(int64(r))
	}
	// The writer: the same contents again, in a new order each round, plus
	// tombstones for keys that never existed inside the scanned ranges —
	// each flush a new table, every third table a compaction.
	before := db.Stats().Compacts
	rnd := rand.New(rand.NewSource(99))
	for round := 0; round < 12; round++ {
		for _, i := range rnd.Perm(n)[:n/2] {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		db.Delete([]byte(fmt.Sprintf("m/%02d/never", round%7)))
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := db.Stats().Compacts - before; got < 3 {
		t.Errorf("%d compactions while reading, want at least 3", got)
	}
}

// TestCallbackPanicIsNotSwallowed: the fault guard around a read recovers
// only faults on the tables' mappings. A panic raised inside a Scan
// callback or a View function — a value of the caller's, or a nil-pointer
// dereference — comes out unchanged, the read lock is released, and the
// goroutine's panic-on-fault setting is restored.
func TestCallbackPanicIsNotSwallowed(t *testing.T) {
	db := openTemp(t, Options{})
	db.Put([]byte("k/table"), []byte("1"))
	db.Flush()
	db.Put([]byte("k/memtable"), []byte("2"))

	type boom struct{ n int }
	var nilPtr *boom
	raise := map[string]func(){
		"a value":         func() { panic(boom{7}) },
		"nil dereference": func() { _ = nilPtr.n },
	}
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	for name, p := range raise {
		want := recovered(p)
		for _, k := range []string{"k/table", "k/memtable"} {
			got := recovered(func() { db.View([]byte(k), func([]byte) error { p(); return nil }) })
			if got != want {
				t.Errorf("%s in View(%q): recovered %v, want %v", name, k, got, want)
			}
			got = recovered(func() { db.Scan([]byte(k), func(_, _ []byte) bool { p(); return true }) })
			if got != want {
				t.Errorf("%s in Scan(%q): recovered %v, want %v", name, k, got, want)
			}
		}
	}
	if debug.SetPanicOnFault(false) {
		t.Error("panic-on-fault left on after a read")
	}
	if err := db.Put([]byte("k/after"), []byte("3")); err != nil {
		t.Fatal(err) // would block for good if a read had kept its lock
	}
}

// TestViewMatchesGet: View sees what Get returns — the same hits, the same
// misses, tombstones hiding older values — in the memtable and in tables,
// calls its function exactly once on a hit and never on a miss, and hands
// back the function's error.
func TestViewMatchesGet(t *testing.T) {
	db := openTemp(t, Options{})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	model := map[int]string{}
	for i := 0; i < 30; i++ { // the oldest table
		db.Put(key(i), []byte(fmt.Sprintf("old%d", i)))
		model[i] = fmt.Sprintf("old%d", i)
	}
	db.Flush()
	for i := 10; i < 20; i++ { // a newer table that deletes a third
		db.Delete(key(i))
		delete(model, i)
	}
	db.Put(key(40), []byte("new40"))
	model[40] = "new40"
	db.Flush()
	for i := 20; i < 25; i++ { // the memtable overwrites some and deletes others
		db.Put(key(i), []byte(fmt.Sprintf("mem%d", i)))
		model[i] = fmt.Sprintf("mem%d", i)
	}
	for i := 25; i < 30; i++ {
		db.Delete(key(i))
		delete(model, i)
	}
	db.Put(key(41), []byte("mem41"))
	model[41] = "mem41"

	for i := 0; i < 45; i++ {
		want, inModel := model[i]
		g, gok, gerr := db.Get(key(i))
		var v []byte
		calls := 0
		vok, verr := db.View(key(i), func(b []byte) error { v, calls = bytes.Clone(b), calls+1; return nil })
		if gerr != nil || verr != nil || gok != inModel || vok != inModel || string(g) != want || string(v) != want {
			t.Errorf("key %d: Get = %q, %v, %v; View = %q, %v, %v; want %q, %v", i, g, gok, gerr, v, vok, verr, want, inModel)
		}
		if wantCalls := map[bool]int{true: 1, false: 0}[inModel]; calls != wantCalls {
			t.Errorf("key %d: View called its function %d times, want %d", i, calls, wantCalls)
		}
	}
	stop := errors.New("stop")
	for _, i := range []int{0, 22} { // in a table, in the memtable
		if ok, err := db.View(key(i), func([]byte) error { return stop }); !ok || err != stop {
			t.Errorf("View(%q) with a failing function = %v, %v; want true, %v", key(i), ok, err, stop)
		}
	}
}
