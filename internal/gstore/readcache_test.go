package gstore

import (
	"container/list"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

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
	collectEdges(t, c, 1, "run")
	c.DeleteVertex(1)
	if _, ok, _ := c.GetVertex(1); ok {
		t.Error("after DeleteVertex: vertex still readable")
	}
	if edges := collectEdges(t, c, 1, "run"); len(edges) != 0 {
		t.Errorf("after DeleteVertex: edges %v", edges)
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
			switch r.Intn(8) {
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
			case 4, 5:
				got, okGot, _ := c.GetVertex(id)
				want, okWant, _ := oracle.GetVertex(id)
				if okGot != okWant || !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d op %d: GetVertex(%d) = %+v/%v, want %+v/%v",
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
		want, okWant, _ := c.Unwrap().GetVertex(id)
		if okGot != okWant || !reflect.DeepEqual(got, want) {
			t.Errorf("quiesced GetVertex(%d) = %+v/%v, underlying %+v/%v", id, got, okGot, want, okWant)
		}
		if got, want := collectEdgeIDs(t, c, id, "run"), collectEdgeIDs(t, c.Unwrap(), id, "run"); !reflect.DeepEqual(got, want) {
			t.Errorf("quiesced ScanEdgeIDs(%d) = %v, underlying %v", id, got, want)
		}
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
	// One packed run costs 64 + 2 + 8*cap bytes; with append growth to 128
	// slots that is ~1090 — over half the shard budget — so caching "bb"
	// must evict "aa".
	collectEdgeIDs(t, c, src, "aa")
	st := c.CacheStats()
	if min := int64(adjOverhead + 2 + 8*fanout); st.Bytes < min {
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

// TestSecondChanceAgainstLRU reads a seeded, skewed sequence of vertices and
// adjacency runs through the cache and through the LRU model. With room for
// everything the two give the same hit or miss on every read; with a working
// set four times the budget the hit fractions stay within 0.02 of each other,
// and no shard is ever over its budget after a read returns.
func TestSecondChanceAgainstLRU(t *testing.T) {
	const nIDs = 2000
	mem := NewMemStore()
	var total int64
	for i := 0; i < nIDs; i++ {
		v := model.Vertex{ID: model.VertexID(i), Label: "File", Props: property.Map{"n": property.Int(int64(i))}}
		mem.PutVertex(v)
		total += vertexSize(v)
		adj := make([]model.VertexID, 0, 1+i%13)
		for j := 0; j < cap(adj); j++ {
			mem.PutEdge(model.Edge{Src: v.ID, Label: "read", Dst: model.VertexID(j)})
			adj = append(adj, model.VertexID(j))
		}
		total += adjSize("read", adj)
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
				v, _, _ := c.GetVertex(id)
				e = refEntry{id: id, size: vertexSize(v)}
			} else {
				e = refEntry{id: id, label: "read", size: adjSize("read", collectEdgeIDs(t, c, id, "read"))}
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

// BenchmarkCachedHit reads resident entries from four goroutines: the warm
// traversal's two store calls, where the replacement policy's bookkeeping is
// all there is besides the map lookup.
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
	for i := 0; i < nIDs; i++ {
		c.GetVertex(model.VertexID(i))
		c.ScanEdgeIDs(model.VertexID(i), "read", sink)
	}
	for _, bc := range []struct {
		name string
		read func(id model.VertexID)
	}{
		{"vertex", func(id model.VertexID) { c.GetVertex(id) }},
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
