package gstore

import (
	"cmp"
	"container/list"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

func collectEdges(t *testing.T, g Graph, src model.VertexID, label string) []model.Edge {
	t.Helper()
	var edges []model.Edge
	if err := g.ScanEdges(src, label, func(e model.Edge) bool {
		edges = append(edges, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return edges
}

func collectEdgeIDs(t *testing.T, g Graph, src model.VertexID, label string) []model.VertexID {
	t.Helper()
	var ids []model.VertexID
	if err := g.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		ids = append(ids, dst)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// viewed returns a copy of what ViewVertex hands its function.
func viewed(t testing.TB, g Graph, id model.VertexID) ([]byte, bool) {
	t.Helper()
	var val []byte
	found, err := g.ViewVertex(id, func(v []byte) error {
		val = slices.Clone(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return val, found
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCachedGraph(NewMemStore(), 1<<20)
	v := model.Vertex{ID: 7, Label: "User", Props: property.Map{"name": property.String("sam")}}
	if err := c.PutVertex(v); err != nil {
		t.Fatal(err)
	}
	c.PutEdge(model.Edge{Src: 7, Dst: 8, Label: "run"})
	c.PutEdge(model.Edge{Src: 7, Dst: 9, Label: "run"})

	for i := 0; i < 3; i++ {
		got, ok, err := c.GetVertex(7)
		if err != nil || !ok || !reflect.DeepEqual(got, v) {
			t.Fatalf("read %d: %+v ok=%v err=%v", i, got, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		if ids := collectEdgeIDs(t, c, 7, "run"); len(ids) != 2 {
			t.Fatalf("scan %d: %v", i, ids)
		}
	}
	// Property-bearing scans pass through uncached and leave the adjacency
	// counters untouched.
	if edges := collectEdges(t, c, 7, "run"); len(edges) != 2 {
		t.Fatalf("ScanEdges: %v", edges)
	}
	// Negative vertex reads are never cached: both count as misses.
	for i := 0; i < 2; i++ {
		if _, ok, _ := c.GetVertex(999); ok {
			t.Fatal("ghost vertex found")
		}
	}
	st := c.CacheStats()
	want := CacheStats{VtxHits: 2, VtxMisses: 3, AdjHits: 2, AdjMisses: 1, Bytes: st.Bytes}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if st.Bytes <= 0 {
		t.Errorf("cached bytes = %d, want > 0", st.Bytes)
	}
}

// TestCorruptVertexIsAnError: a stored vertex value that does not parse is an
// error on every read, even through a function that, like an empty step
// predicate, reads none of it — on the Store's view, on the cache's miss, and
// on the read after it, which must miss again: the cache admits only values
// it checked. A well-formed value read the same way is admitted and then hit.
func TestCorruptVertexIsAnError(t *testing.T) {
	store, err := Open(t.TempDir(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	good := model.AppendVertexValue(nil, model.Vertex{ID: 1, Label: "File", Props: property.Map{"n": property.Int(1)}})
	bad := [][]byte{
		good[:len(good)-1],                    // truncated
		append(slices.Clone(good), 0),         // trailing byte
		{0x7f, 'F'},                           // label past the end
		append([]byte{1, 'F'}, 0x80, 0x80, 4), // map count past the end
	}
	for i, val := range append([][]byte{good}, bad...) {
		if err := store.db.Put(vertexKey(nil, model.VertexID(i)), val); err != nil {
			t.Fatal(err)
		}
	}
	readsNothing := func([]byte) error { return nil }
	c := NewCachedGraph(store, 1<<20)
	for i, val := range bad {
		id := model.VertexID(1 + i)
		if _, err := model.DecodeVertexValue(id, val); err == nil {
			t.Fatalf("bad value %d (%x) decodes", i, val)
		}
		if _, err := store.ViewVertex(id, readsNothing); err == nil {
			t.Errorf("Store: corrupt value %x read without error", val)
		}
		for read := range 2 {
			if _, err := c.ViewVertex(id, readsNothing); err == nil {
				t.Errorf("CachedGraph read %d: corrupt value %x read without error", read, val)
			}
		}
	}
	for range 2 {
		if found, err := c.ViewVertex(0, readsNothing); !found || err != nil {
			t.Fatalf("well-formed value: found %v, err %v", found, err)
		}
	}
	if st := c.CacheStats(); st.VtxHits != 1 || st.VtxMisses != 1+2*int64(len(bad)) {
		t.Errorf("stats = %+v, want 1 hit (the well-formed value) and every corrupt read a miss", st)
	}
}

// TestCacheInvalidation checks every write shape drops exactly the entries
// it makes stale: a read issued after the write returns must see the new
// version.
func TestCacheInvalidation(t *testing.T) {
	c := NewCachedGraph(NewMemStore(), 1<<20)
	c.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"n": property.Int(1)}})
	c.PutEdge(model.Edge{Src: 1, Dst: 2, Label: "run"})

	c.GetVertex(1) // populate both shapes
	collectEdges(t, c, 1, "run")

	// Overwrite the vertex: the cached copy must not survive.
	c.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"n": property.Int(2)}})
	if got, _, _ := c.GetVertex(1); got.Props["n"].I64() != 2 {
		t.Errorf("after PutVertex: read %v", got.Props["n"])
	}

	// Add an edge under the cached label: the slice must refresh.
	c.PutEdge(model.Edge{Src: 1, Dst: 3, Label: "run"})
	if edges := collectEdges(t, c, 1, "run"); len(edges) != 2 {
		t.Errorf("after PutEdge: %v", edges)
	}

	// Remove one edge: the refreshed slice must shrink.
	collectEdges(t, c, 1, "run") // re-populate
	c.DeleteEdge(1, "run", 2)
	if edges := collectEdges(t, c, 1, "run"); len(edges) != 1 || edges[0].Dst != 3 {
		t.Errorf("after DeleteEdge: %v", edges)
	}

	// Delete the vertex: both the vertex and its adjacency must go.
	c.GetVertex(1)
	collectEdgeIDs(t, c, 1, "run")
	c.DeleteVertex(1)
	if _, ok, _ := c.GetVertex(1); ok {
		t.Error("after DeleteVertex: vertex still readable")
	}
	if ids := collectEdgeIDs(t, c, 1, "run"); len(ids) != 0 {
		t.Errorf("after DeleteVertex: edges %v", ids)
	}
}

// TestCacheDifferentialQuick runs the same randomized op sequence against a
// cached store and a plain MemStore oracle, comparing every read. Three
// capacities: ample (everything fits), tiny (constant eviction pressure on
// a handful of entries) and zero (nothing is ever cached) — correctness
// must not depend on what happens to be resident.
func TestCacheDifferentialQuick(t *testing.T) {
	for _, maxBytes := range []int64{1 << 20, 4096, 0} {
		c := NewCachedGraph(NewMemStore(), maxBytes)
		oracle := NewMemStore()
		r := rand.New(rand.NewSource(maxBytes + 1))
		const nIDs = 30
		labels := []string{"run", "read", "write"}
		for op := 0; op < 2000; op++ {
			id := model.VertexID(r.Intn(nIDs))
			label := labels[r.Intn(len(labels))]
			switch r.Intn(9) {
			case 0:
				v := model.Vertex{ID: id, Label: "User",
					Props: property.Map{"n": property.Int(int64(op))}}
				c.PutVertex(v)
				oracle.PutVertex(v)
			case 1:
				e := model.Edge{Src: id, Dst: model.VertexID(r.Intn(nIDs)), Label: label,
					Props: property.Map{"w": property.Int(int64(op % 7))}}
				c.PutEdge(e)
				oracle.PutEdge(e)
			case 2:
				dst := model.VertexID(r.Intn(nIDs))
				c.DeleteEdge(id, label, dst)
				oracle.DeleteEdge(id, label, dst)
			case 3:
				if r.Intn(4) == 0 { // rare: deletes drop adjacency too
					c.DeleteVertex(id)
					oracle.DeleteVertex(id)
				}
			case 4:
				got, okGot, _ := c.GetVertex(id)
				want, okWant, _ := oracle.GetVertex(id)
				if okGot != okWant || !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d op %d: GetVertex(%d) = %+v/%v, want %+v/%v",
						maxBytes, op, id, got, okGot, want, okWant)
				}
			case 5:
				got, okGot := viewed(t, c, id)
				want, okWant := viewed(t, oracle, id)
				if okGot != okWant || !slices.Equal(got, want) {
					t.Fatalf("cap %d op %d: ViewVertex(%d) = %x/%v, want %x/%v",
						maxBytes, op, id, got, okGot, want, okWant)
				}
			case 6:
				got := collectEdges(t, c, id, label)
				want := collectEdges(t, oracle, id, label)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d op %d: ScanEdges(%d,%s) = %v, want %v",
						maxBytes, op, id, label, got, want)
				}
			default:
				got := collectEdgeIDs(t, c, id, label)
				want := collectEdgeIDs(t, oracle, id, label)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d op %d: ScanEdgeIDs(%d,%s) = %v, want %v",
						maxBytes, op, id, label, got, want)
				}
			}
		}
		st := c.CacheStats()
		if maxBytes == 0 && st.Bytes != 0 {
			t.Errorf("zero-capacity cache holds %d bytes", st.Bytes)
		}
		if st.Bytes > maxBytes {
			t.Errorf("cap %d: cache holds %d bytes over budget", maxBytes, st.Bytes)
		}
		if maxBytes == 1<<20 && st.VtxHits+st.AdjHits == 0 {
			t.Error("ample cache never hit")
		}
	}
}

// TestCacheConcurrentReadsAndWrites is a -race exercise of the gen-guarded
// miss path: readers and writers race on a small id set, then a quiesced
// final pass must observe exactly the underlying state (a stale insert
// published over a newer write would survive to this point).
func TestCacheConcurrentReadsAndWrites(t *testing.T) {
	c := NewCachedGraph(NewMemStore(), 1<<18)
	const (
		nIDs    = 8
		writers = 4
		readers = 4
		rounds  = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := model.VertexID(i % nIDs)
				c.PutVertex(model.Vertex{ID: id, Label: "User",
					Props: property.Map{"n": property.Int(int64(w*rounds + i))}})
				c.PutEdge(model.Edge{Src: id, Dst: model.VertexID((i + 1) % nIDs), Label: "run"})
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.GetVertex(model.VertexID(i % nIDs))
				c.ScanEdgeIDs(model.VertexID(i%nIDs), "run", func(model.VertexID) bool { return true })
			}
		}()
	}
	wg.Wait()
	for id := model.VertexID(0); id < nIDs; id++ {
		got, okGot, _ := c.GetVertex(id)
		want, okWant, _ := c.Graph.GetVertex(id)
		if okGot != okWant || !reflect.DeepEqual(got, want) {
			t.Errorf("quiesced GetVertex(%d) = %+v/%v, underlying %+v/%v", id, got, okGot, want, okWant)
		}
		if got, want := collectEdgeIDs(t, c, id, "run"), collectEdgeIDs(t, c.Graph, id, "run"); !reflect.DeepEqual(got, want) {
			t.Errorf("quiesced ScanEdgeIDs(%d) = %v, underlying %v", id, got, want)
		}
	}
}

// TestCacheRaceWithDeletes races readers against writers that also delete
// vertices (dropping a vertex and every run from it) and edges, in a budget
// that keeps the CLOCK hand moving. Every value a reader is handed must
// decode; once quiesced, every read through the cache equals the MemStore
// underneath it, the model.
func TestCacheRaceWithDeletes(t *testing.T) {
	mem := NewMemStore()
	c := NewCachedGraph(mem, 16*1024)
	const (
		nIDs   = 24
		rounds = 400
	)
	labels := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				id := model.VertexID(r.Intn(nIDs))
				label := labels[r.Intn(len(labels))]
				switch r.Intn(6) {
				case 0, 1:
					c.PutVertex(model.Vertex{ID: id, Label: "N", Props: property.Map{"n": property.Int(int64(i))}})
				case 2, 3:
					c.PutEdge(model.Edge{Src: id, Dst: model.VertexID(r.Intn(nIDs)), Label: label})
				case 4:
					c.DeleteEdge(id, label, model.VertexID(r.Intn(nIDs)))
				default:
					c.DeleteVertex(id)
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 2*rounds; i++ {
				id := model.VertexID(r.Intn(nIDs))
				if _, err := c.ViewVertex(id, func(val []byte) error {
					_, err := model.DecodeVertexValue(id, val)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
				c.ScanEdgeIDs(id, labels[r.Intn(len(labels))], func(model.VertexID) bool { return true })
			}
		}(g)
	}
	wg.Wait()
	for id := model.VertexID(0); id < nIDs; id++ {
		got, okGot := viewed(t, c, id)
		want, okWant := viewed(t, mem, id)
		if okGot != okWant || !slices.Equal(got, want) {
			t.Errorf("quiesced ViewVertex(%d) = %x/%v, model %x/%v", id, got, okGot, want, okWant)
		}
		for _, l := range labels {
			if got, want := collectEdgeIDs(t, c, id, l), collectEdgeIDs(t, mem, id, l); !slices.Equal(got, want) {
				t.Errorf("quiesced ScanEdgeIDs(%d,%s) = %v, model %v", id, l, got, want)
			}
		}
	}
	if st := c.CacheStats(); st.Bytes > 16*1024 {
		t.Errorf("cache holds %d bytes, budget %d", st.Bytes, 16*1024)
	}
}

// TestCachePackedAdjBudgetEviction pins the byte accounting of packed
// adjacency entries under a tiny budget: each run is charged for its slice
// backing array (8 bytes per slot of capacity, not just the header), so two
// large runs cannot co-reside in a shard whose budget fits only one, and
// re-scanning the evicted run is a fresh miss.
func TestCachePackedAdjBudgetEviction(t *testing.T) {
	const perShard = 2048
	c := NewCachedGraph(NewMemStore(), 16*perShard)
	const src, fanout = model.VertexID(5), 100
	for _, label := range []string{"aa", "bb"} {
		for d := 0; d < fanout; d++ {
			c.PutEdge(model.Edge{Src: src, Dst: model.VertexID(1000 + d), Label: label})
		}
	}
	// One packed run costs entryCost + 8*cap bytes; with append growth to 128
	// slots that is over half the shard budget, so caching "bb" must evict
	// "aa".
	collectEdgeIDs(t, c, src, "aa")
	st := c.CacheStats()
	if min := int64(entryCost + 8*fanout); st.Bytes < min {
		t.Errorf("one run charged %d bytes, want >= %d (backing array, not header)", st.Bytes, min)
	}
	collectEdgeIDs(t, c, src, "bb")
	if st := c.CacheStats(); st.Bytes > perShard {
		t.Errorf("shard over budget: %d > %d", st.Bytes, perShard)
	}
	if ids := collectEdgeIDs(t, c, src, "aa"); len(ids) != fanout {
		t.Fatalf("re-scan returned %d ids", len(ids))
	}
	st = c.CacheStats()
	if st.AdjMisses != 3 {
		t.Errorf("adj misses = %d, want 3 (aa, bb, aa-after-eviction)", st.AdjMisses)
	}
	if st.AdjHits != 0 {
		t.Errorf("adj hits = %d, want 0", st.AdjHits)
	}
}

// TestCacheOversizeEntryNotCached pins the budget rule: an entry larger
// than one shard's budget passes through without being cached (and without
// evicting the whole shard to make room for something that cannot fit).
func TestCacheOversizeEntryNotCached(t *testing.T) {
	c := NewCachedGraph(NewMemStore(), 16*200) // 200 bytes per shard
	big := model.Vertex{ID: 1, Label: "User",
		Props: property.Map{"blob": property.String(string(make([]byte, 4096)))}}
	c.PutVertex(big)
	for i := 0; i < 2; i++ {
		if _, ok, _ := c.GetVertex(1); !ok {
			t.Fatal("oversize vertex unreadable")
		}
	}
	st := c.CacheStats()
	if st.VtxHits != 0 || st.VtxMisses != 2 {
		t.Errorf("oversize entry was cached: %+v", st)
	}
	if st.Bytes != 0 {
		t.Errorf("oversize entry charged %d bytes", st.Bytes)
	}
}

// lruRef is the replacement policy the cache had before second chance — every
// hit moves the entry to the front of its shard's list, eviction takes the
// tail — as a model over entry names and sizes, kept as the oracle for what
// the reference bit may and may not change.
type lruRef struct {
	budget int64
	shards [cacheShards]struct {
		order *list.List // front = most recent; values are refEntry
		at    map[refEntry]*list.Element
		bytes int64
	}
}

type refEntry struct {
	id    model.VertexID
	label string // "" for the vertex itself
	size  int64
}

// read reports whether the entry was resident, and makes it the most recent.
func (l *lruRef) read(shard int, e refEntry) bool {
	sh := &l.shards[shard]
	if sh.at == nil {
		sh.order, sh.at = list.New(), map[refEntry]*list.Element{}
	}
	if el, ok := sh.at[e]; ok {
		sh.order.MoveToFront(el)
		return true
	}
	if e.size > l.budget {
		return false
	}
	sh.at[e] = sh.order.PushFront(e)
	for sh.bytes += e.size; sh.bytes > l.budget; {
		victim := sh.order.Remove(sh.order.Back()).(refEntry)
		delete(sh.at, victim)
		sh.bytes -= victim.size
	}
	return false
}

// cachedSize is what the cache charges for a vertex's value or a run: a
// clone's capacity (the allocator's size class), or 8 bytes an id.
func cachedSize(val []byte, run []model.VertexID) int64 {
	e := cacheEntry{val: slices.Clone(val), run: run}
	return e.size()
}

// skewedGraph is nIDs File vertices, each with 1 + i%13 "read" edges.
func skewedGraph(nIDs int) *MemStore {
	mem := NewMemStore()
	for i := 0; i < nIDs; i++ {
		mem.PutVertex(model.Vertex{ID: model.VertexID(i), Label: "File", Props: property.Map{"n": property.Int(int64(i))}})
		for j := 0; j < 1+i%13; j++ {
			mem.PutEdge(model.Edge{Src: model.VertexID(i), Label: "read", Dst: model.VertexID(j)})
		}
	}
	return mem
}

// TestSecondChanceAgainstLRU reads a seeded, skewed sequence of vertices and
// adjacency runs through the cache and through the LRU model. With room for
// everything the two give the same hit or miss on every read; with a working
// set four times the budget the hit fractions stay within 0.02 of each other,
// and no shard is ever over its budget after a read returns.
func TestSecondChanceAgainstLRU(t *testing.T) {
	const nIDs = 2000
	mem := skewedGraph(nIDs)
	var total int64
	for i := 0; i < nIDs; i++ {
		val, _ := viewed(t, mem, model.VertexID(i))
		total += cachedSize(val, nil) + cachedSize(nil, collectEdgeIDs(t, mem, model.VertexID(i), "read"))
	}
	for _, tc := range []struct {
		name   string
		budget int64
		within float64
	}{{"ample", 4 * total, 0}, {"quarter", total / 4, 0.02}} {
		c := NewCachedGraph(mem, tc.budget)
		ref := &lruRef{budget: c.budget}
		r := rand.New(rand.NewSource(21))
		zipf := rand.NewZipf(r, 1.1, 8, nIDs-1)
		hits, refHits, evicting := 0, 0, false
		const reads = 60_000
		for i := 0; i < reads; i++ {
			id := model.VertexID(zipf.Uint64())
			before := c.CacheStats()
			var e refEntry
			if r.Intn(2) == 0 {
				val, _ := viewed(t, c, id)
				e = refEntry{id: id, size: cachedSize(val, nil)}
			} else {
				e = refEntry{id: id, label: "read", size: cachedSize(nil, collectEdgeIDs(t, c, id, "read"))}
			}
			after := c.CacheStats()
			hit := after.VtxHits+after.AdjHits > before.VtxHits+before.AdjHits
			shard := int(uint64(id) * 0x9e3779b97f4a7c15 >> (64 - 4))
			if c.shard(id) != &c.shards[shard] {
				t.Fatal("the model shards differently from the cache")
			}
			refHit := ref.read(shard, e)
			if sh := &c.shards[shard]; sh.bytes > c.budget {
				t.Fatalf("%s read %d: shard holds %d bytes, budget %d", tc.name, i, sh.bytes, c.budget)
			} else if sh.bytes != ref.shards[shard].bytes {
				evicting = true // different residents from here on
			}
			if !evicting && hit != refHit {
				t.Fatalf("%s read %d of %+v: hit = %v, LRU says %v, and nothing was evicted yet", tc.name, i, e, hit, refHit)
			}
			if hit {
				hits++
			}
			if refHit {
				refHits++
			}
		}
		got, want := float64(hits)/reads, float64(refHits)/reads
		t.Logf("%s: hit fraction %.4f, LRU %.4f", tc.name, got, want)
		if math.Abs(got-want) > tc.within {
			t.Errorf("%s: hit fraction %.4f, LRU %.4f: more than %.2f apart", tc.name, got, want, tc.within)
		}
		if tc.within == 0 && evicting {
			t.Errorf("%s: the budget was meant to hold everything", tc.name)
		}
	}
}

// listCache is the read cache the flat table replaced: decoded vertices and
// packed runs as list elements, indexed per shard by a vertex map and a
// source → label → element map, evicted second chance from the list's tail.
// It is single-threaded here (no lock, no generation) and kept as the
// reference the flat CLOCK table is held to.
type listCache struct {
	g      Graph
	budget int64
	shards [cacheShards]listShard
}

type listShard struct {
	lru   *list.List
	vtx   map[model.VertexID]*list.Element
	adj   map[model.VertexID]map[string]*list.Element
	bytes int64
}

type listEntry struct {
	isVtx  bool
	ref    bool
	id     model.VertexID
	label  string
	vertex model.Vertex
	adj    []model.VertexID
	size   int64
}

// The list cache's size estimates: Go object overhead per entry, per
// property and per byte of string.
func listVertexSize(v model.Vertex) int64 {
	n := 64 + int64(len(v.Label))
	for k, p := range v.Props {
		n += 32 + int64(len(k)) + int64(len(p.Str()))
	}
	return n
}

func listAdjSize(label string, adj []model.VertexID) int64 {
	return 64 + int64(len(label)) + 8*int64(cap(adj))
}

func newListCache(g Graph, maxBytes int64) *listCache {
	c := &listCache{g: g, budget: maxBytes / cacheShards}
	for i := range c.shards {
		c.shards[i] = listShard{lru: list.New(), vtx: map[model.VertexID]*list.Element{},
			adj: map[model.VertexID]map[string]*list.Element{}}
	}
	return c
}

func (c *listCache) shard(id model.VertexID) *listShard {
	return &c.shards[(uint64(id)*0x9e3779b97f4a7c15)>>(64-4)]
}

func (sh *listShard) remove(el *list.Element) {
	ent := el.Value.(*listEntry)
	sh.lru.Remove(el)
	sh.bytes -= ent.size
	if ent.isVtx {
		delete(sh.vtx, ent.id)
	} else if byLabel := sh.adj[ent.id]; byLabel != nil {
		delete(byLabel, ent.label)
		if len(byLabel) == 0 {
			delete(sh.adj, ent.id)
		}
	}
}

func (sh *listShard) insert(budget int64, ent *listEntry) {
	if ent.size > budget {
		return
	}
	if ent.isVtx {
		sh.vtx[ent.id] = sh.lru.PushFront(ent)
	} else {
		if sh.adj[ent.id] == nil {
			sh.adj[ent.id] = map[string]*list.Element{}
		}
		sh.adj[ent.id][ent.label] = sh.lru.PushFront(ent)
	}
	for sh.bytes += ent.size; sh.bytes > budget; {
		back := sh.lru.Back()
		if ent := back.Value.(*listEntry); ent.ref {
			ent.ref = false
			sh.lru.MoveToFront(back)
			continue
		}
		sh.remove(back)
	}
}

func (c *listCache) getVertex(id model.VertexID) (v model.Vertex, found, hit bool) {
	sh := c.shard(id)
	if el, ok := sh.vtx[id]; ok {
		ent := el.Value.(*listEntry)
		ent.ref = true
		return ent.vertex, true, true
	}
	v, found, _ = c.g.GetVertex(id)
	if found {
		sh.insert(c.budget, &listEntry{isVtx: true, id: id, vertex: v, size: listVertexSize(v)})
	}
	return v, found, false
}

func (c *listCache) scanEdgeIDs(src model.VertexID, label string) (adj []model.VertexID, hit bool) {
	sh := c.shard(src)
	if el, ok := sh.adj[src][label]; ok {
		ent := el.Value.(*listEntry)
		ent.ref = true
		return ent.adj, true
	}
	c.g.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		adj = append(adj, dst)
		return true
	})
	sh.insert(c.budget, &listEntry{id: src, label: label, adj: adj, size: listAdjSize(label, adj)})
	return adj, false
}

// invalidate drops the vertex (all), or the one run (label), of id.
func (c *listCache) invalidate(id model.VertexID, label string, all bool) {
	sh := c.shard(id)
	if el, ok := sh.vtx[id]; ok && (all || label == "") {
		sh.remove(el)
	}
	for l, el := range sh.adj[id] {
		if all || l == label {
			sh.remove(el)
		}
	}
}

// cacheKey names a resident entry: a vertex (label "") or a run.
type cacheKey struct {
	id    model.VertexID
	label string
}

func (c *listCache) resident() []cacheKey {
	var keys []cacheKey
	for i := range c.shards {
		for el := c.shards[i].lru.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*listEntry)
			keys = append(keys, cacheKey{ent.id, ent.label})
		}
	}
	return sortKeys(keys)
}

func (c *CachedGraph) resident() []cacheKey {
	var keys []cacheKey
	names := *c.labels.Load()
	for i := range c.shards {
		for _, e := range c.shards[i].entries {
			k := cacheKey{id: e.id}
			if e.lbl != 0 {
				k.label = names[e.lbl-1]
			}
			keys = append(keys, k)
		}
	}
	return sortKeys(keys)
}

func sortKeys(keys []cacheKey) []cacheKey {
	slices.SortFunc(keys, func(a, b cacheKey) int {
		return cmp.Or(cmp.Compare(a.id, b.id), strings.Compare(a.label, b.label))
	})
	return keys
}

// TestFlatCacheAgainstListCache runs one seeded, skewed mix of reads and
// writes through the flat CLOCK cache and through the list-and-map cache it
// replaced, each over its own copy of the graph. Every read answers the same.
// With room for everything the two hold the same entries after every
// thousand operations; at a quarter of each one's working set their hit
// fractions are within 0.02.
func TestFlatCacheAgainstListCache(t *testing.T) {
	const nIDs = 2000
	labels := []string{"read", "write"}
	build := func() *MemStore {
		mem := skewedGraph(nIDs)
		for i := 0; i < nIDs; i += 3 {
			mem.PutEdge(model.Edge{Src: model.VertexID(i), Label: "write", Dst: model.VertexID(i / 3)})
		}
		return mem
	}
	mem := build()
	var flatTotal, listTotal int64
	for i := 0; i < nIDs; i++ {
		id := model.VertexID(i)
		val, _ := viewed(t, mem, id)
		v, _, _ := mem.GetVertex(id)
		flatTotal += cachedSize(val, nil)
		listTotal += listVertexSize(v)
		for _, l := range labels {
			run := collectEdgeIDs(t, mem, id, l)
			flatTotal += cachedSize(nil, run)
			listTotal += listAdjSize(l, run)
		}
	}
	for _, tc := range []struct {
		name             string
		flatB, listB     int64
		within           float64
		compareResidents bool
	}{
		{"ample", 4 * flatTotal, 4 * listTotal, 0, true},
		{"quarter", flatTotal / 4, listTotal / 4, 0.02, false},
	} {
		flat, ref := NewCachedGraph(build(), tc.flatB), newListCache(build(), tc.listB)
		r := rand.New(rand.NewSource(31))
		zipf := rand.NewZipf(r, 1.1, 8, nIDs-1)
		flatHits, refHits := 0, 0
		const ops = 60_000
		for op := 0; op < ops; op++ {
			id := model.VertexID(zipf.Uint64())
			label := labels[r.Intn(len(labels))]
			before := flat.CacheStats()
			switch r.Intn(40) {
			case 0:
				v := model.Vertex{ID: id, Label: "File", Props: property.Map{"n": property.Int(int64(op))}}
				flat.PutVertex(v)
				ref.g.PutVertex(v)
				ref.invalidate(id, "", false)
			case 1:
				e := model.Edge{Src: id, Label: label, Dst: model.VertexID(op % nIDs)}
				flat.PutEdge(e)
				ref.g.PutEdge(e)
				ref.invalidate(id, label, false)
			case 2:
				if r.Intn(10) == 0 {
					flat.DeleteVertex(id)
					ref.g.DeleteVertex(id)
					ref.invalidate(id, "", true)
				}
			case 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19:
				got, okGot, _ := flat.GetVertex(id)
				want, okWant, refHit := ref.getVertex(id)
				if okGot != okWant || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s op %d: GetVertex(%d) = %+v/%v, reference %+v/%v", tc.name, op, id, got, okGot, want, okWant)
				}
				if refHit {
					refHits++
				}
			default:
				got := collectEdgeIDs(t, flat, id, label)
				want, refHit := ref.scanEdgeIDs(id, label)
				if !slices.Equal(got, want) {
					t.Fatalf("%s op %d: ScanEdgeIDs(%d,%s) = %v, reference %v", tc.name, op, id, label, got, want)
				}
				if refHit {
					refHits++
				}
			}
			after := flat.CacheStats()
			flatHits += int(after.VtxHits + after.AdjHits - before.VtxHits - before.AdjHits)
			if tc.compareResidents && op%1000 == 999 {
				if got, want := flat.resident(), ref.resident(); !slices.Equal(got, want) {
					t.Fatalf("%s op %d: %d entries resident, the reference holds %d", tc.name, op, len(got), len(want))
				}
			}
		}
		got, want := float64(flatHits)/ops, float64(refHits)/ops
		t.Logf("%s: hit fraction %.4f, list cache %.4f", tc.name, got, want)
		if math.Abs(got-want) > tc.within {
			t.Errorf("%s: hit fraction %.4f, list cache %.4f: more than %.2f apart", tc.name, got, want, tc.within)
		}
	}
}

// TestCacheChargeMatchesHeap holds the charge rule to the heap: with 10 000
// vertices and 10 000 runs cached, the bytes the cache says it holds are
// within a quarter of what the heap grew by to hold them.
func TestCacheChargeMatchesHeap(t *testing.T) {
	const n = 10_000
	mem := skewedGraph(n)
	c := NewCachedGraph(mem, 1<<40)
	accept := func([]byte) error { return nil }
	sink := func(model.VertexID) bool { return true }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.ViewVertex(model.VertexID(i), accept)
		c.ScanEdgeIDs(model.VertexID(i), "read", sink)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	charged := float64(c.CacheStats().Bytes)
	t.Logf("charged %.0f bytes, heap grew %.0f: %.1f and %.1f bytes an entry", charged, grown, charged/(2*n), grown/(2*n))
	if charged < 0.75*grown || charged > 1.25*grown {
		t.Errorf("charged %.0f bytes for %.0f of heap: outside ±25 %%", charged, grown)
	}
	runtime.KeepAlive(c)
}

// BenchmarkCachedHit reads resident entries from four goroutines: the warm
// traversal's two store calls, where the replacement policy's bookkeeping is
// all there is besides the table lookup.
func BenchmarkCachedHit(b *testing.B) {
	const nIDs = 4096
	mem := NewMemStore()
	for i := 0; i < nIDs; i++ {
		mem.PutVertex(model.Vertex{ID: model.VertexID(i), Label: "File"})
		for j := 0; j < 8; j++ {
			mem.PutEdge(model.Edge{Src: model.VertexID(i), Label: "read", Dst: model.VertexID(j)})
		}
	}
	c := NewCachedGraph(mem, 1<<30)
	sink := func(model.VertexID) bool { return true }
	accept := func([]byte) error { return nil }
	for i := 0; i < nIDs; i++ {
		c.ViewVertex(model.VertexID(i), accept)
		c.ScanEdgeIDs(model.VertexID(i), "read", sink)
	}
	for _, bc := range []struct {
		name string
		read func(id model.VertexID)
	}{
		{"vertex", func(id model.VertexID) { c.ViewVertex(id, accept) }},
		{"adj", func(id model.VertexID) { c.ScanEdgeIDs(id, "read", sink) }},
	} {
		read := bc.read
		b.Run(bc.name, func(b *testing.B) {
			b.SetParallelism(2) // 4 goroutines at GOMAXPROCS 2
			b.RunParallel(func(pb *testing.PB) {
				id := model.VertexID(rand.Intn(nIDs))
				for pb.Next() {
					read(id)
					id = (id*31 + 7) % nIDs
				}
			})
		})
	}
}
