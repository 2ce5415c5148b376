package gstore

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// CachedGraph wraps a Graph with a memory-bounded, sharded read cache over
// the two hot read shapes of the traversal engine: decoded vertices
// (GetVertex, one per merged execution group) and CSR-style packed per-
// (src,label) adjacency runs (ScanEdgeIDs, one per expansion) — a plain
// []VertexID, 8 bytes per edge, no Edge structs, no property maps. A hit
// skips the LSM lookup and all decoding — the stand-in for the RocksDB
// block cache §VI leans on, but holding the compact secondary structure a
// traversal actually consumes. ScanEdges (edge properties needed) passes
// through uncached; the engines only take it when a step carries edge
// filters.
//
// Consistency: writes go to the underlying store first, then invalidate the
// affected entries before returning, so a reader that starts after a write
// returns never sees the overwritten version. Concurrent read/write races
// are handled with a per-shard generation counter: a reader snapshots the
// generation before fetching from the underlying store and only inserts if
// no invalidation happened in between, so a stale fetch can never be
// published over a newer write.
type CachedGraph struct {
	g      Graph
	budget int64 // per-shard byte budget
	shards [cacheShards]cacheShard

	vtxHits   atomic.Int64
	vtxMisses atomic.Int64
	adjHits   atomic.Int64
	adjMisses atomic.Int64
}

// CacheStats are the cumulative hit/miss counters of a CachedGraph.
type CacheStats struct {
	VtxHits   int64
	VtxMisses int64
	AdjHits   int64
	AdjMisses int64
	Bytes     int64 // current cached bytes (estimate)
}

// CacheStatter is implemented by stores that expose read-cache counters;
// the server overlays them into its metrics snapshot.
type CacheStatter interface {
	CacheStats() CacheStats
}

// cacheShards is the number of independently locked cache segments. Both a
// vertex and its out-adjacency hash to the same shard (by vertex / source
// id), so DeleteVertex invalidates everything it affects under one lock.
const cacheShards = 16

type cacheShard struct {
	mu    sync.Mutex
	gen   uint64 // bumped on every invalidation; guards miss-path inserts
	lru   *list.List
	vtx   map[model.VertexID]*list.Element
	adj   map[model.VertexID]map[string]*list.Element // src -> label -> entry
	bytes int64
}

// cacheEntry is one list node: either a vertex or one (src,label) packed
// adjacency run, tagged by isVtx. A hit only sets ref, leaving the list as it
// is; eviction gives a referenced entry a second chance.
type cacheEntry struct {
	isVtx  bool
	ref    bool
	id     model.VertexID // vertex id, or adjacency source id
	label  string         // adjacency edge label (unused for vertices)
	vertex model.Vertex
	adj    []model.VertexID // packed destination ids, in dst order
	size   int64
}

var (
	_ Graph         = (*CachedGraph)(nil)
	_ PropertyIndex = (*CachedGraph)(nil)
	_ CacheStatter  = (*CachedGraph)(nil)
)

// NewCachedGraph wraps g with a read cache bounded to roughly maxBytes of
// cached value memory. The budget divides evenly across shards; an entry
// larger than one shard's budget is never cached. maxBytes <= 0 yields a
// cache that stores nothing but still counts hits and misses.
func NewCachedGraph(g Graph, maxBytes int64) *CachedGraph {
	c := &CachedGraph{g: g, budget: maxBytes / cacheShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.lru = list.New()
		sh.vtx = make(map[model.VertexID]*list.Element)
		sh.adj = make(map[model.VertexID]map[string]*list.Element)
	}
	return c
}

// Unwrap returns the underlying store.
func (c *CachedGraph) Unwrap() Graph { return c.g }

// CacheStats implements CacheStatter.
func (c *CachedGraph) CacheStats() CacheStats {
	st := CacheStats{
		VtxHits:   c.vtxHits.Load(),
		VtxMisses: c.vtxMisses.Load(),
		AdjHits:   c.adjHits.Load(),
		AdjMisses: c.adjMisses.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

func (c *CachedGraph) shard(id model.VertexID) *cacheShard {
	// Fibonacci hashing: dense loader-assigned ids would otherwise pile
	// into a few shards under a plain modulo.
	return &c.shards[(uint64(id)*0x9e3779b97f4a7c15)>>(64-4)]
}

// Size accounting. The estimates charge Go object overhead per entry so a
// budget of N bytes holds roughly N bytes of live heap, not just payload.
const (
	vertexOverhead = 64 // list element + map entry + struct headers
	adjOverhead    = 64
	perPropCost    = 32 // map bucket share + Value struct
)

func propsSize(m property.Map) int64 {
	n := int64(0)
	for k, v := range m {
		n += perPropCost + int64(len(k))
		if v.Kind() == property.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

func vertexSize(v model.Vertex) int64 {
	return vertexOverhead + int64(len(v.Label)) + propsSize(v.Props)
}

func adjSize(label string, adj []model.VertexID) int64 {
	// Charge the slice's backing array by capacity, not length: the array
	// is what the entry pins on the heap, and append growth can leave
	// cap > len. 8 bytes per slot (VertexID is uint64).
	return adjOverhead + int64(len(label)) + 8*int64(cap(adj))
}

// removeLocked unlinks one entry. Caller holds sh.mu.
func (sh *cacheShard) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
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

// evictLocked trims the shard back under budget from the list's tail, where
// an entry hit since it was put there goes to the front once more, its
// reference spent. Caller holds sh.mu.
func (sh *cacheShard) evictLocked(budget int64) {
	for sh.bytes > budget {
		back := sh.lru.Back()
		if back == nil {
			return
		}
		if ent := back.Value.(*cacheEntry); ent.ref {
			ent.ref = false
			sh.lru.MoveToFront(back)
			continue
		}
		sh.removeLocked(back)
	}
}

// insert publishes a miss-path fetch unless the shard was invalidated since
// gen was snapshotted (the fetch may predate a concurrent write) or the
// entry cannot fit.
func (sh *cacheShard) insert(gen uint64, budget int64, ent *cacheEntry) {
	if ent.size > budget {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen != gen {
		return
	}
	// A racing reader may have inserted the same entry already; replace it
	// so the books stay balanced.
	if ent.isVtx {
		if el, ok := sh.vtx[ent.id]; ok {
			sh.removeLocked(el)
		}
		sh.vtx[ent.id] = sh.lru.PushFront(ent)
	} else {
		byLabel := sh.adj[ent.id]
		if byLabel == nil {
			byLabel = make(map[string]*list.Element)
			sh.adj[ent.id] = byLabel
		} else if el, ok := byLabel[ent.label]; ok {
			sh.removeLocked(el)
			if sh.adj[ent.id] == nil { // removeLocked dropped the empty map
				byLabel = make(map[string]*list.Element)
				sh.adj[ent.id] = byLabel
			}
		}
		byLabel[ent.label] = sh.lru.PushFront(ent)
	}
	sh.bytes += ent.size
	sh.evictLocked(budget)
}

// invalidateVertex drops the cached copy of one vertex.
func (sh *cacheShard) invalidateVertex(id model.VertexID) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gen++
	if el, ok := sh.vtx[id]; ok {
		sh.removeLocked(el)
	}
}

// invalidateAdj drops one (src,label) adjacency slice.
func (sh *cacheShard) invalidateAdj(src model.VertexID, label string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gen++
	if el, ok := sh.adj[src][label]; ok {
		sh.removeLocked(el)
	}
}

// invalidateSrc drops a vertex and every adjacency slice rooted at it —
// DeleteVertex removes the out-edges too, so both shapes go stale at once.
func (sh *cacheShard) invalidateSrc(id model.VertexID) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gen++
	if el, ok := sh.vtx[id]; ok {
		sh.removeLocked(el)
	}
	for _, el := range sh.adj[id] {
		sh.removeLocked(el)
	}
}

// GetVertex implements Graph.
func (c *CachedGraph) GetVertex(id model.VertexID) (model.Vertex, bool, error) {
	sh := c.shard(id)
	sh.mu.Lock()
	if el, ok := sh.vtx[id]; ok {
		ent := el.Value.(*cacheEntry)
		ent.ref = true
		v := ent.vertex
		sh.mu.Unlock()
		c.vtxHits.Add(1)
		return v, true, nil
	}
	gen := sh.gen
	sh.mu.Unlock()
	c.vtxMisses.Add(1)
	v, ok, err := c.g.GetVertex(id)
	if err != nil || !ok {
		// Negative results are not cached: missing-vertex reads are not a
		// hot traversal shape, and skipping them keeps invalidation simple.
		return v, ok, err
	}
	sh.insert(gen, c.budget, &cacheEntry{isVtx: true, id: id, vertex: v, size: vertexSize(v)})
	return v, true, nil
}

// ScanEdges implements Graph. Property-bearing edge scans pass through
// uncached: the engines only take this path when a step filters on edge
// properties, and caching decoded Edge structs is exactly the bloat the
// packed ScanEdgeIDs cache exists to avoid.
func (c *CachedGraph) ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error {
	return c.g.ScanEdges(src, label, fn)
}

// ScanEdgeIDs implements Graph. The full (src,label) packed run is
// materialized on a miss even if fn stops early — the engine always
// consumes whole scans, and a complete run is the only version safe to
// replay for later calls.
func (c *CachedGraph) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	sh := c.shard(src)
	sh.mu.Lock()
	if el, ok := sh.adj[src][label]; ok {
		ent := el.Value.(*cacheEntry)
		ent.ref = true
		adj := ent.adj
		sh.mu.Unlock()
		c.adjHits.Add(1)
		for _, dst := range adj {
			if !fn(dst) {
				break
			}
		}
		return nil
	}
	gen := sh.gen
	sh.mu.Unlock()
	c.adjMisses.Add(1)
	adj, err := c.loadEdgeIDs(src, label)
	if err != nil {
		return err
	}
	sh.insert(gen, c.budget, &cacheEntry{id: src, label: label, adj: adj, size: adjSize(label, adj)})
	for _, dst := range adj {
		if !fn(dst) {
			break
		}
	}
	return nil
}

// loadEdgeIDs reads a whole (src,label) run for the cache. The persistent
// store hands it back allocated once, at its length; any other Graph — a
// MemStore, or a decorator that must see the call — is gathered through its
// scan.
func (c *CachedGraph) loadEdgeIDs(src model.VertexID, label string) ([]model.VertexID, error) {
	if s, ok := c.g.(*Store); ok {
		return s.edgeIDs(src, label)
	}
	var adj []model.VertexID
	err := c.g.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		adj = append(adj, dst)
		return true
	})
	return adj, err
}

// PutVertex implements Graph.
func (c *CachedGraph) PutVertex(v model.Vertex) error {
	if err := c.g.PutVertex(v); err != nil {
		return err
	}
	c.shard(v.ID).invalidateVertex(v.ID)
	return nil
}

// DeleteVertex implements Graph.
func (c *CachedGraph) DeleteVertex(id model.VertexID) error {
	if err := c.g.DeleteVertex(id); err != nil {
		return err
	}
	c.shard(id).invalidateSrc(id)
	return nil
}

// PutEdge implements Graph.
func (c *CachedGraph) PutEdge(e model.Edge) error {
	if err := c.g.PutEdge(e); err != nil {
		return err
	}
	c.shard(e.Src).invalidateAdj(e.Src, e.Label)
	return nil
}

// DeleteEdge implements Graph.
func (c *CachedGraph) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	if err := c.g.DeleteEdge(src, label, dst); err != nil {
		return err
	}
	c.shard(src).invalidateAdj(src, label)
	return nil
}

// ScanAllEdges implements Graph; all-label scans are a bulk/maintenance
// shape, so they pass through uncached.
func (c *CachedGraph) ScanAllEdges(src model.VertexID, fn func(model.Edge) bool) error {
	return c.g.ScanAllEdges(src, fn)
}

// ScanVerticesByLabel implements Graph (uncached pass-through).
func (c *CachedGraph) ScanVerticesByLabel(label string, fn func(model.VertexID) bool) error {
	return c.g.ScanVerticesByLabel(label, fn)
}

// ScanVertices implements Graph (uncached pass-through).
func (c *CachedGraph) ScanVertices(fn func(model.Vertex) bool) error {
	return c.g.ScanVertices(fn)
}

// Close implements Graph.
func (c *CachedGraph) Close() error { return c.g.Close() }

// The index capability passes through to the underlying store; index rows
// are derived from the same writes that invalidate the cache, so no extra
// coordination is needed.

// EnableIndex implements PropertyIndex.
func (c *CachedGraph) EnableIndex(key string) error {
	ix, ok := c.g.(PropertyIndex)
	if !ok {
		return fmt.Errorf("gstore: underlying store has no property index")
	}
	return ix.EnableIndex(key)
}

// HasIndex implements PropertyIndex.
func (c *CachedGraph) HasIndex(key string) bool {
	ix, ok := c.g.(PropertyIndex)
	return ok && ix.HasIndex(key)
}

// LookupVertices implements PropertyIndex.
func (c *CachedGraph) LookupVertices(key string, v property.Value) ([]model.VertexID, error) {
	ix, ok := c.g.(PropertyIndex)
	if !ok {
		return nil, fmt.Errorf("gstore: underlying store has no property index")
	}
	return ix.LookupVertices(key, v)
}

// LookupVerticesRange implements PropertyIndex.
func (c *CachedGraph) LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error) {
	ix, ok := c.g.(PropertyIndex)
	if !ok {
		return nil, fmt.Errorf("gstore: underlying store has no property index")
	}
	return ix.LookupVerticesRange(key, lo, hi)
}
