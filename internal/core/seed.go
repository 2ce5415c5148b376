package core

import (
	"sort"

	"graphtrek/internal/gstore"
	"graphtrek/internal/metrics"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
)

// Seed filter pushdown (§III: traversal entry points are "retrieved with
// searching or indexing mechanisms provided by the underlying graph
// storage"). When the local store indexes a property that step 0 filters
// on, the seed's source set resolves through the index — O(matches) step-0
// candidates — instead of enqueuing the whole label population and
// filtering each vertex after its disk access. The index is label-agnostic,
// so candidates still pass through the full step-0 predicate
// (Plan.VertexMatcher(0), source label included) when processed; the
// pushdown only shrinks the candidate set, never changes results.

// seedFromIndex resolves the step-0 source candidates through a property
// index when one covers a step-0 filter. ok is false when no index covers
// (or a lookup fails), in which case the caller falls back to the scan
// path. An empty id list with ok == true is authoritative: the index
// proves no local vertex carries a matching value.
func (s *Server) seedFromIndex(s0 query.Step) (ids []model.VertexID, ok bool) {
	ix := s.cfg.Store
	f, found := pickIndexedFilter(ix, s0.VertexFilters)
	if !found {
		return nil, false
	}
	var err error
	switch f.Op {
	case property.EQ:
		ids, err = ix.LookupVertices(f.Key, f.Args[0])
	case property.IN:
		ids, err = lookupUnion(ix, f.Key, f.Args)
	case property.RANGE:
		ids, err = ix.LookupVerticesRange(f.Key, f.Args[0], f.Args[1])
	default:
		return nil, false
	}
	if err != nil {
		// A failed lookup degrades to the scan path rather than failing
		// the traversal: the index is an accelerator, not a correctness
		// dependency.
		return nil, false
	}
	return ids, true
}

// pickIndexedFilter chooses the step-0 vertex filter to push into the
// index. Ops are preferred in selectivity order — EQ (one value), then IN
// (a few values), then RANGE — and within an op the first filter in plan
// order wins. The reserved label pseudo-key is not a stored property and
// never indexable; RANGE additionally needs the order-preserving encoding,
// so string ranges stay on the scan path.
func pickIndexedFilter(ix gstore.PropertyIndex, fs property.Filters) (property.Filter, bool) {
	for _, op := range []property.Op{property.EQ, property.IN, property.RANGE} {
		for _, f := range fs {
			if f.Op != op || f.Key == query.LabelKey || !ix.HasIndex(f.Key) {
				continue
			}
			if len(f.Args) == 0 {
				continue
			}
			if op == property.RANGE && !property.OrderComparable(f.Args[0].Kind()) {
				continue
			}
			return f, true
		}
	}
	return property.Filter{}, false
}

// lookupUnion resolves an IN filter as the deduplicated union of per-value
// exact-match lookups, in ascending id order like every index lookup.
func lookupUnion(ix gstore.PropertyIndex, key string, vals []property.Value) ([]model.VertexID, error) {
	seen := make(map[model.VertexID]bool)
	var ids []model.VertexID
	for _, v := range vals {
		got, err := ix.LookupVertices(key, v)
		if err != nil {
			return nil, err
		}
		for _, id := range got {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// selectSeeds enumerates this server's step-0 source candidates: via index
// pushdown when possible, else the by-label (or full) scan. It charges the
// simulated disk one sequential scan either way — the index read replaces
// the label-namespace read — and feeds the seed-selection counters:
// SeedScanned counts candidates enumerated on either path, SeedIndexHits
// only index-resolved ones, so an indexed selective seed shows
// SeedScanned == matches where the scan path shows the label population.
func (s *Server) selectSeeds(s0 query.Step) ([]model.VertexID, error) {
	s.disk.Access(0, scanBlock) // one sequential index/label-namespace scan
	ids, usedIndex := s.seedFromIndex(s0)
	var err error
	if !usedIndex {
		if s0.SourceLabel != "" {
			err = s.cfg.Store.ScanVerticesByLabel(s0.SourceLabel, func(id model.VertexID) bool {
				ids = append(ids, id)
				return true
			})
		} else {
			err = s.cfg.Store.ScanVertices(func(v model.Vertex) bool {
				ids = append(ids, v.ID)
				return true
			})
		}
	}
	if err != nil {
		return nil, err
	}
	// With replication enabled this store holds vertices for every partition
	// it replicates, but only partitions it currently primaries may seed a
	// traversal here — the primary of each other partition enumerates its
	// own copy. Without the filter every replica would seed the same
	// vertices ReplicationFactor times.
	if s.cfg.Route != nil {
		self := int32(s.cfg.ID)
		owned := ids[:0]
		for _, id := range ids {
			p := s.cfg.Route.Partition(id)
			if s.cfg.Route.Assignment(p).Primary == self {
				owned = append(owned, id)
			}
		}
		ids = owned
	}
	if usedIndex {
		s.met.Add(metrics.SeedIndexHits, int64(len(ids)))
	}
	s.met.Add(metrics.SeedScanned, int64(len(ids)))
	return ids, nil
}
