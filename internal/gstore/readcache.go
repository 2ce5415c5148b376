package gstore

import (
	"bytes"
	"sync"
	"sync/atomic"

	"graphtrek/internal/model"
)

// CachedGraph wraps a Graph with a memory-bounded, sharded read cache over
// the two hot read shapes of the traversal engine: a vertex's encoded value
// (ViewVertex, one per merged execution group; the step's predicate runs on
// the cached bytes as on the table's) and CSR-style packed (src,label)
// adjacency runs (ScanEdgeIDs, one per expansion) — a plain []VertexID, 8
// bytes per edge. A hit skips the LSM lookup — the stand-in for the RocksDB
// block cache §VI leans on, holding what a traversal consumes. Writes pass
// through and invalidate. Every other Graph method — the property-bearing
// scans, the interning dictionary and the property index — is the embedded
// store's, uncached: index rows derive from the same writes that invalidate
// the cache, and dictionary entries never change once allocated.
//
// Each shard is one flat table: a dense slice of entries that a CLOCK hand
// sweeps, indexed by open addressing over 4-byte positions. A vertex is keyed
// by its id, a run by its source id and its label's number in the cache's
// label table. A hit sets the entry's reference bit and reads the bytes
// outside the lock: cached bytes are never written.
//
// Consistency: writes go to the underlying store first, then invalidate the
// affected entries before returning, so a read that starts after a write
// returns sees the new version. A miss snapshots its shard's generation
// before fetching and inserts only if no invalidation happened in between,
// so a stale fetch can never be published over a newer write.
type CachedGraph struct {
	Graph
	budget int64 // per-shard byte budget
	labels atomic.Pointer[[]string]
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
	mu      sync.Mutex
	gen     uint64       // bumped on every invalidation; guards miss-path inserts
	entries []cacheEntry // dense; the CLOCK hand sweeps it
	slots   []uint32     // open-addressed positions into entries, plus one; 0 is empty
	hand    int
	bytes   int64
}

// cacheEntry is a vertex's encoded value (label number 0) or the packed run
// of its out-edges under label number lbl; slot is its place in the table.
type cacheEntry struct {
	id   model.VertexID
	lbl  uint16
	ref  bool
	slot uint32
	val  []byte
	run  []model.VertexID
}

// entryCost is what an entry costs besides its bytes: its 64 bytes in the
// dense slice and its 4-byte slot, each with growth headroom, and the
// allocator's rounding of the bytes. TestCacheChargeMatchesHeap measures
// 85.5 at 20 000 entries, so a budget of N bytes holds about N of heap.
const entryCost = 88

func (e *cacheEntry) size() int64 {
	return entryCost + int64(cap(e.val)) + 8*int64(cap(e.run))
}

// maxLabels bounds the label table: a plan names a handful of edge labels, so
// a lookup scans a short slice; runs of labels past it pass through uncached.
const maxLabels = 64

// label returns label's number from 1, numbering it if add is set and there
// is room; 0 means none.
func (c *CachedGraph) label(label string, add bool) uint16 {
	for {
		p := c.labels.Load()
		names := *p
		for i, name := range names {
			if name == label {
				return uint16(i + 1)
			}
		}
		if !add || len(names) == maxLabels {
			return 0
		}
		grown := append(names[:len(names):len(names)], label)
		if c.labels.CompareAndSwap(p, &grown) {
			return uint16(len(grown))
		}
	}
}

var (
	_ Graph        = (*CachedGraph)(nil)
	_ CacheStatter = (*CachedGraph)(nil)
)

// NewCachedGraph wraps g with a read cache bounded to roughly maxBytes of
// heap. The budget divides evenly across shards; an entry larger than one
// shard's budget is never cached. maxBytes <= 0 yields a cache that stores
// nothing but still counts hits and misses.
func NewCachedGraph(g Graph, maxBytes int64) *CachedGraph {
	c := &CachedGraph{Graph: g, budget: maxBytes / cacheShards}
	c.labels.Store(new([]string))
	return c
}

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

func (sh *cacheShard) home(id model.VertexID, lbl uint16) int {
	h := (uint64(id) ^ uint64(lbl)<<52) * 0xbf58476d1ce4e5b9
	return int(h>>32) & (len(sh.slots) - 1)
}

// find returns the position of (id, lbl) in entries, or -1; sh.mu is held.
func (sh *cacheShard) find(id model.VertexID, lbl uint16) int {
	if len(sh.slots) == 0 {
		return -1
	}
	mask := len(sh.slots) - 1
	for i := sh.home(id, lbl); sh.slots[i] != 0; i = (i + 1) & mask {
		if pos := int(sh.slots[i] - 1); sh.entries[pos].id == id && sh.entries[pos].lbl == lbl {
			return pos
		}
	}
	return -1
}

// place points a free slot at the entry in position pos.
func (sh *cacheShard) place(pos int) {
	e := &sh.entries[pos]
	mask := len(sh.slots) - 1
	i := sh.home(e.id, e.lbl)
	for sh.slots[i] != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i], e.slot = uint32(pos+1), uint32(i)
}

// remove drops the entry in position pos. The table closes the gap by
// shifting the run behind its slot back, so no tombstones build up, and the
// last entry moves into the dropped one's position.
func (sh *cacheShard) remove(pos int) {
	sh.bytes -= sh.entries[pos].size()
	mask := len(sh.slots) - 1
	i := int(sh.entries[pos].slot)
	for j := (i + 1) & mask; sh.slots[j] != 0; j = (j + 1) & mask {
		e := &sh.entries[sh.slots[j]-1]
		if (j-sh.home(e.id, e.lbl))&mask >= (j-i)&mask {
			sh.slots[i], e.slot, i = sh.slots[j], uint32(i), j
		}
	}
	sh.slots[i] = 0
	last := len(sh.entries) - 1
	if pos != last {
		sh.entries[pos] = sh.entries[last]
		sh.slots[sh.entries[pos].slot] = uint32(pos + 1)
	}
	sh.entries[last] = cacheEntry{}
	sh.entries = sh.entries[:last]
}

// hit returns (id, lbl)'s entry, setting its bit, or a miss's generation.
func (sh *cacheShard) hit(id model.VertexID, lbl uint16) (e cacheEntry, gen uint64, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pos := sh.find(id, lbl); pos >= 0 {
		sh.entries[pos].ref = true
		return sh.entries[pos], 0, true
	}
	return cacheEntry{}, sh.gen, false
}

// insert publishes a miss-path fetch unless the shard was invalidated since
// gen was snapshotted (the fetch may predate a concurrent write) or the
// entry cannot fit. Over budget, the CLOCK hand clears the reference bit of
// each entry hit since it last passed and drops the first one it finds clear.
func (sh *cacheShard) insert(gen uint64, budget int64, e cacheEntry) {
	if e.size() > budget {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen != gen {
		return
	}
	// A racing reader may have inserted the same entry already; replace it
	// so the books stay balanced.
	if pos := sh.find(e.id, e.lbl); pos >= 0 {
		sh.remove(pos)
	}
	if 4*(len(sh.entries)+1) > 3*len(sh.slots) {
		sh.slots = make([]uint32, max(8, 2*len(sh.slots)))
		for pos := range sh.entries {
			sh.place(pos)
		}
	}
	sh.entries = append(sh.entries, e)
	sh.place(len(sh.entries) - 1)
	// The hand passes the entry that fills a hole, too: it is the one
	// inserted last, and goes round as if it had been put behind the hand.
	for sh.bytes += e.size(); sh.bytes > budget; sh.hand++ {
		if sh.hand >= len(sh.entries) {
			sh.hand = 0
		}
		if victim := &sh.entries[sh.hand]; victim.ref {
			victim.ref = false
		} else {
			sh.remove(sh.hand)
		}
	}
}

// invalidate drops id's entries with label numbers lo through hi (0 is the
// vertex itself).
func (sh *cacheShard) invalidate(id model.VertexID, lo, hi uint16) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gen++
	for lbl := lo; lbl <= hi; lbl++ {
		if pos := sh.find(id, lbl); pos >= 0 {
			sh.remove(pos)
		}
	}
}

// ViewVertex implements Graph. A hit hands fn the cached bytes; a miss
// fetches a copy of the value and checks it once, at admission, so a hit
// hands over only values that parse without walking them again — a step
// with an empty predicate reads nothing. The cache keeps the copy only if
// fn accepted it.
func (c *CachedGraph) ViewVertex(id model.VertexID, fn func(val []byte) error) (bool, error) {
	sh := c.shard(id)
	e, gen, ok := sh.hit(id, 0)
	if ok {
		c.vtxHits.Add(1)
		return true, fn(e.val)
	}
	c.vtxMisses.Add(1)
	val, found, err := c.loadVertex(id)
	if err != nil || !found {
		// Negative results are not cached: missing-vertex reads are not a
		// hot traversal shape, and skipping them keeps invalidation simple.
		return found, err
	}
	if err := model.CheckVertexValue(val); err != nil {
		return true, err
	}
	if err := fn(val); err != nil {
		return true, err
	}
	sh.insert(gen, c.budget, cacheEntry{id: id, val: val})
	return true, nil
}

// loadVertex reads a copy of a vertex's value for the cache: one allocation
// from the persistent store, a clone through any other Graph's view.
func (c *CachedGraph) loadVertex(id model.VertexID) ([]byte, bool, error) {
	if s, ok := c.Graph.(*Store); ok {
		var key [1 + 8]byte
		return s.db.Get(vertexKey(key[:0], id))
	}
	var val []byte
	found, err := c.Graph.ViewVertex(id, func(v []byte) error {
		val = bytes.Clone(v)
		return nil
	})
	return val, found, err
}

// GetVertex implements Graph, decoding the cached bytes on a hit.
func (c *CachedGraph) GetVertex(id model.VertexID) (v model.Vertex, found bool, err error) {
	found, err = c.ViewVertex(id, func(val []byte) (err error) {
		v, err = model.DecodeVertexValue(id, val)
		return err
	})
	if err != nil || !found {
		return model.Vertex{}, false, err
	}
	return v, true, nil
}

// ScanEdgeIDs implements Graph. The full (src,label) packed run is
// materialized on a miss even if fn stops early — the engine always
// consumes whole scans, and a complete run is the only version safe to
// replay for later calls.
func (c *CachedGraph) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	lbl := c.label(label, true)
	if lbl == 0 {
		c.adjMisses.Add(1)
		return c.Graph.ScanEdgeIDs(src, label, fn)
	}
	sh := c.shard(src)
	e, gen, ok := sh.hit(src, lbl)
	if ok {
		c.adjHits.Add(1)
	} else {
		c.adjMisses.Add(1)
		var err error
		if e.run, err = c.loadEdgeIDs(src, label); err != nil {
			return err
		}
		sh.insert(gen, c.budget, cacheEntry{id: src, lbl: lbl, run: e.run})
	}
	for _, dst := range e.run {
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
	if s, ok := c.Graph.(*Store); ok {
		return s.edgeIDs(src, label)
	}
	var adj []model.VertexID
	err := c.Graph.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		adj = append(adj, dst)
		return true
	})
	return adj, err
}

// PutVertex implements Graph.
func (c *CachedGraph) PutVertex(v model.Vertex) error {
	if err := c.Graph.PutVertex(v); err != nil {
		return err
	}
	c.shard(v.ID).invalidate(v.ID, 0, 0)
	return nil
}

// DeleteVertex implements Graph. The vertex goes together with every run
// from it: DeleteVertex removes the out-edges too.
func (c *CachedGraph) DeleteVertex(id model.VertexID) error {
	if err := c.Graph.DeleteVertex(id); err != nil {
		return err
	}
	c.shard(id).invalidate(id, 0, uint16(len(*c.labels.Load())))
	return nil
}

// PutEdge implements Graph.
func (c *CachedGraph) PutEdge(e model.Edge) error {
	if err := c.Graph.PutEdge(e); err != nil {
		return err
	}
	c.invalidateRun(e.Src, e.Label)
	return nil
}

// DeleteEdge implements Graph.
func (c *CachedGraph) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	if err := c.Graph.DeleteEdge(src, label, dst); err != nil {
		return err
	}
	c.invalidateRun(src, label)
	return nil
}

// invalidateRun drops one (src,label) run.
func (c *CachedGraph) invalidateRun(src model.VertexID, label string) {
	n := c.label(label, false) // 0: no run of it was ever cached
	c.shard(src).invalidate(src, max(n, 1), n)
}
