package gstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// PropertyIndex is the secondary-index half of Graph: the "searching or
// indexing mechanisms provided by the underlying graph storage" that §III
// says GTravel entry points are retrieved with. An enabled index maps one
// property key's values to vertex ids, so v() seeds like "the user named
// sam" resolve without a scan, and numeric RANGE seeds resolve as one
// bounded key-range scan.
type PropertyIndex interface {
	// EnableIndex starts indexing the property key, backfilling existing
	// vertices. Enabling twice is a no-op. Safe to call concurrently with
	// writes: a vertex written while the backfill runs is indexed exactly
	// once, under its current value.
	EnableIndex(key string) error
	// HasIndex reports whether the property key is indexed.
	HasIndex(key string) bool
	// LookupVertices returns the ids of vertices whose property `key`
	// equals v, in ascending order. Looking up a key that was never
	// enabled is an error.
	LookupVertices(key string, v property.Value) ([]model.VertexID, error)
	// LookupVerticesRange returns the ids of vertices whose property `key`
	// lies in [lo, hi], ascending. lo and hi must share an order-comparable
	// kind (property.OrderComparable); string ranges are not indexable and
	// return an error — callers fall back to the scan path.
	LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error)
}

// Persistent store implementation. Index rows live under their own tag:
//
//	'P' <len(key):uvarint> <key> <ordered value encoding> <id:8> -> nil
//
// The value encoding is property.AppendOrderedValue: deterministic and
// prefix-free, so exact-match lookups are one prefix scan, and
// order-preserving for numeric kinds, so RANGE lookups are one bounded
// [lo, hi] key-range scan instead of a full-index sweep.
func propIndexKey(key string, v property.Value, id model.VertexID) []byte {
	b := propIndexPrefix(make([]byte, 0, 2+len(key)+16), key, v)
	return binary.BigEndian.AppendUint64(b, uint64(id))
}

// propIndexPrefix appends to dst the prefix of key's index rows for v.
func propIndexPrefix(dst []byte, key string, v property.Value) []byte {
	dst = binary.AppendUvarint(append(dst, 'P'), uint64(len(key)))
	return property.AppendOrderedValue(append(dst, key...), v)
}

// prefixSuccessor returns the smallest key greater than every key having b
// as a prefix — the exclusive upper bound for a prefix-closed range scan.
// Nil means no bound (b was all 0xFF).
func prefixSuccessor(b []byte) []byte {
	end := append([]byte(nil), b...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// indexedKeys returns the Store's enabled index keys (guarded by idxMu).
func (s *Store) indexEnabled(key string) bool {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.indexed[key]
}

// HasIndex implements PropertyIndex.
func (s *Store) HasIndex(key string) bool { return s.indexEnabled(key) }

// EnableIndex implements PropertyIndex.
func (s *Store) EnableIndex(key string) error {
	if key == "" {
		return fmt.Errorf("gstore: cannot index empty property key")
	}
	s.idxMu.Lock()
	if s.indexed == nil {
		s.indexed = make(map[string]bool)
	}
	if s.indexed[key] {
		s.idxMu.Unlock()
		return nil
	}
	s.indexed[key] = true
	s.idxMu.Unlock()
	// Backfill: one pass over existing vertices. Collect ids first —
	// writing during iteration is not allowed — then index each vertex
	// under its stripe lock, re-reading the current value so a PutVertex
	// racing the backfill can't strand a row for an overwritten value:
	// whichever of the two runs second sees the other's effect.
	var ids []model.VertexID
	err := s.ScanVertices(func(v model.Vertex) bool {
		if _, ok := v.Props[key]; ok {
			ids = append(ids, v.ID)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, id := range ids {
		mu := s.stripe(id)
		mu.Lock()
		v, ok, err := s.GetVertex(id)
		if err == nil && ok {
			if val, has := v.Props[key]; has {
				err = s.db.Put(propIndexKey(key, val, id), nil)
			}
		}
		mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// LookupVertices implements PropertyIndex. The prefix and the ids gather on
// the stack, as in edgeIDs, so the answer is its only allocation.
func (s *Store) LookupVertices(key string, v property.Value) ([]model.VertexID, error) {
	if !s.indexEnabled(key) {
		return nil, fmt.Errorf("gstore: property %q is not indexed", key)
	}
	var prefix [64]byte
	var buf [128]model.VertexID
	ids := buf[:0]
	err := s.db.Scan(propIndexPrefix(prefix[:0], key, v), func(k, _ []byte) bool {
		ids = append(ids, model.VertexID(binary.BigEndian.Uint64(k[len(k)-8:])))
		return true
	})
	return append([]model.VertexID(nil), ids...), err
}

// LookupVerticesRange implements PropertyIndex. The ordered value encoding
// makes [lo, hi] one contiguous key interval: rows of other kinds sort
// entirely before or after it (the kind tag leads), so the scan touches
// exactly the matching rows.
func (s *Store) LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error) {
	if !s.indexEnabled(key) {
		return nil, fmt.Errorf("gstore: property %q is not indexed", key)
	}
	if err := checkRangeBounds(lo, hi); err != nil {
		return nil, err
	}
	start := propIndexPrefix(nil, key, lo)
	end := prefixSuccessor(propIndexPrefix(nil, key, hi))
	it, err := s.db.NewIterator(kv.IterOptions{Start: start, End: end})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var ids []model.VertexID
	for ; it.Valid(); it.Next() {
		k := it.Key()
		ids = append(ids, model.VertexID(binary.BigEndian.Uint64(k[len(k)-8:])))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	// Rows sort by value first, id second; a multi-value range needs an
	// id-order result like LookupVertices. A vertex carries one value per
	// key, so there are no duplicates to drop.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// checkRangeBounds validates an index range request: bounds must share an
// order-comparable kind and satisfy lo <= hi.
func checkRangeBounds(lo, hi property.Value) error {
	if lo.Kind() != hi.Kind() {
		return fmt.Errorf("gstore: range bounds have different kinds (%s, %s)", lo.Kind(), hi.Kind())
	}
	if !property.OrderComparable(lo.Kind()) {
		return fmt.Errorf("gstore: %s values are not range-indexable", lo.Kind())
	}
	if lo.Compare(hi) > 0 {
		return fmt.Errorf("gstore: range has lo > hi")
	}
	return nil
}

// updatePropIndexes maintains index rows across a vertex write. old holds
// the previous version when one existed.
func (s *Store) updatePropIndexes(old model.Vertex, hadOld bool, v model.Vertex) error {
	s.idxMu.RLock()
	keys := make([]string, 0, len(s.indexed))
	for k := range s.indexed {
		keys = append(keys, k)
	}
	s.idxMu.RUnlock()
	for _, key := range keys {
		newVal, hasNew := v.Props[key]
		if hadOld {
			if oldVal, hasOldVal := old.Props[key]; hasOldVal && (!hasNew || !oldVal.Equal(newVal)) {
				if err := s.db.Delete(propIndexKey(key, oldVal, v.ID)); err != nil {
					return err
				}
			}
		}
		if hasNew {
			if err := s.db.Put(propIndexKey(key, newVal, v.ID), nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropPropIndexes removes a deleted vertex's index rows.
func (s *Store) dropPropIndexes(v model.Vertex) error {
	s.idxMu.RLock()
	keys := make([]string, 0, len(s.indexed))
	for k := range s.indexed {
		keys = append(keys, k)
	}
	s.idxMu.RUnlock()
	for _, key := range keys {
		if val, ok := v.Props[key]; ok {
			if err := s.db.Delete(propIndexKey(key, val, v.ID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// In-memory implementation.

type memIndex struct {
	mu      sync.RWMutex
	byKey   map[string]map[string][]model.VertexID // key -> encoded value -> sorted ids
	enabled map[string]bool
}

func valueToken(v property.Value) string {
	return string(property.AppendValue(nil, v))
}

// HasIndex implements PropertyIndex.
func (m *MemStore) HasIndex(key string) bool {
	m.idx.mu.RLock()
	defer m.idx.mu.RUnlock()
	return m.idx.enabled[key]
}

// EnableIndex implements PropertyIndex.
func (m *MemStore) EnableIndex(key string) error {
	if key == "" {
		return fmt.Errorf("gstore: cannot index empty property key")
	}
	m.idx.mu.Lock()
	if m.idx.enabled == nil {
		m.idx.enabled = make(map[string]bool)
		m.idx.byKey = make(map[string]map[string][]model.VertexID)
	}
	if m.idx.enabled[key] {
		m.idx.mu.Unlock()
		return nil
	}
	m.idx.enabled[key] = true
	m.idx.byKey[key] = make(map[string][]model.VertexID)
	m.idx.mu.Unlock()
	// Backfill the population existing at this point; anything written
	// after the enabled flag above indexes itself through PutVertex. Each
	// vertex is read and indexed under the store lock so a racing write
	// can't leave a row for an overwritten value (the write path holds the
	// same lock across its vertex + index update).
	m.mu.RLock()
	ids := make([]model.VertexID, 0, len(m.vertices))
	for id := range m.vertices {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	for _, id := range ids {
		m.mu.RLock()
		if v, ok := m.vertices[id]; ok {
			if val, has := v.Props[key]; has {
				m.idx.insert(key, val, v.ID)
			}
		}
		m.mu.RUnlock()
	}
	return nil
}

// LookupVertices implements PropertyIndex.
func (m *MemStore) LookupVertices(key string, v property.Value) ([]model.VertexID, error) {
	m.idx.mu.RLock()
	defer m.idx.mu.RUnlock()
	if !m.idx.enabled[key] {
		return nil, fmt.Errorf("gstore: property %q is not indexed", key)
	}
	ids := m.idx.byKey[key][valueToken(v)]
	return append([]model.VertexID(nil), ids...), nil
}

// LookupVerticesRange implements PropertyIndex. The in-memory index is an
// exact-match map, so the range walks the key's distinct values, keeping the
// same bound semantics (and errors) as the persistent store.
func (m *MemStore) LookupVerticesRange(key string, lo, hi property.Value) ([]model.VertexID, error) {
	m.idx.mu.RLock()
	defer m.idx.mu.RUnlock()
	if !m.idx.enabled[key] {
		return nil, fmt.Errorf("gstore: property %q is not indexed", key)
	}
	if err := checkRangeBounds(lo, hi); err != nil {
		return nil, err
	}
	var ids []model.VertexID
	for tok, bucket := range m.idx.byKey[key] {
		v, _, err := property.ConsumeValue([]byte(tok))
		if err != nil {
			return nil, err
		}
		if v.Kind() == lo.Kind() && v.Compare(lo) >= 0 && v.Compare(hi) <= 0 {
			ids = append(ids, bucket...)
		}
	}
	// One value per vertex per key, so buckets are disjoint: sorting alone
	// yields the ascending, duplicate-free contract.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func (ix *memIndex) insert(key string, v property.Value, id model.VertexID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	tok := valueToken(v)
	ix.byKey[key][tok] = insertID(ix.byKey[key][tok], id)
}

func (ix *memIndex) remove(key string, v property.Value, id model.VertexID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	tok := valueToken(v)
	ix.byKey[key][tok] = removeID(ix.byKey[key][tok], id)
}

// update maintains the in-memory index across a vertex write or delete.
func (ix *memIndex) update(old model.Vertex, hadOld bool, v model.Vertex, hasNew bool) {
	ix.mu.RLock()
	keys := make([]string, 0, len(ix.enabled))
	for k := range ix.enabled {
		keys = append(keys, k)
	}
	ix.mu.RUnlock()
	for _, key := range keys {
		var oldVal, newVal property.Value
		hasOldVal, hasNewVal := false, false
		if hadOld {
			oldVal, hasOldVal = old.Props[key]
		}
		if hasNew {
			newVal, hasNewVal = v.Props[key]
		}
		switch {
		case hasOldVal && hasNewVal && oldVal.Equal(newVal):
			// unchanged
		default:
			if hasOldVal {
				ix.remove(key, oldVal, old.ID)
			}
			if hasNewVal {
				ix.insert(key, newVal, v.ID)
			}
		}
	}
}
