package gstore

import (
	"slices"
	"sort"
	"sync"

	"graphtrek/internal/model"
)

// MemStore is an in-memory Graph. It keeps adjacency grouped by label and
// sorted by destination, matching the iteration order of the persistent
// Store, so the two are interchangeable in tests and simulations.
type MemStore struct {
	mu       sync.RWMutex
	vertices map[model.VertexID]model.Vertex
	byLabel  map[string][]model.VertexID // sorted ids per vertex label
	edges    map[model.VertexID]map[string][]model.Edge
	idx      memIndex
	dict     memDict // interning dictionary, lazily initialized (dict.go)
}

// sortIDs orders vertex ids ascending (dictionary scans mirror the
// persistent store's key order).
func sortIDs(ids []model.VertexID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

var _ Graph = (*MemStore)(nil)

// NewMemStore returns an empty in-memory graph.
func NewMemStore() *MemStore {
	return &MemStore{
		vertices: make(map[model.VertexID]model.Vertex),
		byLabel:  make(map[string][]model.VertexID),
		edges:    make(map[model.VertexID]map[string][]model.Edge),
	}
}

// Close implements Graph; a MemStore has nothing to release.
func (m *MemStore) Close() error { return nil }

// PutVertex implements Graph. The index update happens inside the store
// lock: with it outside, two racing writers to one id could apply their
// index transitions in the opposite order of their vertex writes and
// strand a row for an overwritten value.
func (m *MemStore) PutVertex(v model.Vertex) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, hadOld := m.vertices[v.ID]
	if hadOld {
		if old.Label != v.Label {
			m.byLabel[old.Label] = removeID(m.byLabel[old.Label], v.ID)
			m.byLabel[v.Label] = insertID(m.byLabel[v.Label], v.ID)
		}
	} else {
		m.byLabel[v.Label] = insertID(m.byLabel[v.Label], v.ID)
	}
	m.vertices[v.ID] = v
	m.idx.update(old, hadOld, v, true)
	return nil
}

func insertID(ids []model.VertexID, id model.VertexID) []model.VertexID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

func removeID(ids []model.VertexID, id model.VertexID) []model.VertexID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}

// GetVertex implements Graph.
func (m *MemStore) GetVertex(id model.VertexID) (model.Vertex, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.vertices[id]
	return v, ok, nil
}

// ViewVertex implements Graph, encoding the vertex (well-formed) each call.
func (m *MemStore) ViewVertex(id model.VertexID, fn func(val []byte) error) (bool, error) {
	v, ok, _ := m.GetVertex(id)
	if !ok {
		return false, nil
	}
	return true, fn(model.AppendVertexValue(nil, v))
}

// DeleteVertex implements Graph. Index maintenance stays inside the store
// lock for the same write-write ordering reason as PutVertex.
func (m *MemStore) DeleteVertex(id model.VertexID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vertices[id]
	if !ok {
		return nil
	}
	delete(m.vertices, id)
	m.byLabel[v.Label] = removeID(m.byLabel[v.Label], id)
	delete(m.edges, id)
	m.idx.update(v, true, model.Vertex{}, false)
	return nil
}

// PutEdge implements Graph. Edge lists are copy-on-write: a scan iterates the
// list it read under the lock after releasing it, so what a published list
// holds never changes — a writer edits a copy and publishes that. (Appending
// is no exception: it writes past every reader's length, or to a new array.)
func (m *MemStore) PutEdge(e model.Edge) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	byLabel, ok := m.edges[e.Src]
	if !ok {
		byLabel = make(map[string][]model.Edge)
		m.edges[e.Src] = byLabel
	}
	list := byLabel[e.Label]
	i := sort.Search(len(list), func(i int) bool { return list[i].Dst >= e.Dst })
	if i == len(list) {
		list = append(list, e)
	} else if list = slices.Clone(list); list[i].Dst == e.Dst {
		list[i] = e
	} else {
		list = slices.Insert(list, i, e)
	}
	byLabel[e.Label] = list
	return nil
}

// DeleteEdge implements Graph.
func (m *MemStore) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	byLabel, ok := m.edges[src]
	if !ok {
		return nil
	}
	list := byLabel[label]
	i := sort.Search(len(list), func(i int) bool { return list[i].Dst >= dst })
	if i < len(list) && list[i].Dst == dst {
		byLabel[label] = slices.Delete(slices.Clone(list), i, i+1)
	}
	return nil
}

// ScanEdges implements Graph.
func (m *MemStore) ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error {
	m.mu.RLock()
	list := m.edges[src][label]
	m.mu.RUnlock()
	for _, e := range list {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// ScanEdgeIDs implements Graph.
func (m *MemStore) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	m.mu.RLock()
	list := m.edges[src][label]
	m.mu.RUnlock()
	for _, e := range list {
		if !fn(e.Dst) {
			return nil
		}
	}
	return nil
}

// ScanEdgeValues implements Graph, encoding each edge's value as it goes.
func (m *MemStore) ScanEdgeValues(src model.VertexID, label string, fn func(dst model.VertexID, val []byte) bool) error {
	var val []byte
	return m.ScanEdges(src, label, func(e model.Edge) bool {
		val = model.AppendEdgeValue(val[:0], e)
		return fn(e.Dst, val)
	})
}

// ScanAllEdges implements Graph. Labels are visited in sorted order to
// match the persistent store's key order.
func (m *MemStore) ScanAllEdges(src model.VertexID, fn func(model.Edge) bool) error {
	m.mu.RLock()
	byLabel := m.edges[src]
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	m.mu.RUnlock()
	// Persistent-store key order: labels sort by (length, bytes) because
	// the key embeds a uvarint length before the label text.
	sort.Slice(labels, func(i, j int) bool {
		if len(labels[i]) != len(labels[j]) {
			return len(labels[i]) < len(labels[j])
		}
		return labels[i] < labels[j]
	})
	for _, l := range labels {
		m.mu.RLock()
		list := m.edges[src][l]
		m.mu.RUnlock()
		for _, e := range list {
			if !fn(e) {
				return nil
			}
		}
	}
	return nil
}

// ScanVerticesByLabel implements Graph.
func (m *MemStore) ScanVerticesByLabel(label string, fn func(model.VertexID) bool) error {
	m.mu.RLock()
	ids := append([]model.VertexID(nil), m.byLabel[label]...)
	m.mu.RUnlock()
	for _, id := range ids {
		if !fn(id) {
			return nil
		}
	}
	return nil
}

// ScanVertices implements Graph.
func (m *MemStore) ScanVertices(fn func(model.Vertex) bool) error {
	m.mu.RLock()
	ids := make([]model.VertexID, 0, len(m.vertices))
	for id := range m.vertices {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m.mu.RLock()
		v, ok := m.vertices[id]
		m.mu.RUnlock()
		if ok && !fn(v) {
			return nil
		}
	}
	return nil
}

// NumVertices reports the vertex count (for generators and stats).
func (m *MemStore) NumVertices() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.vertices)
}

// NumEdges reports the edge count (for generators and stats).
func (m *MemStore) NumEdges() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, byLabel := range m.edges {
		for _, list := range byLabel {
			n += len(list)
		}
	}
	return n
}
