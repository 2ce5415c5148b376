// Package gstore implements the property-graph storage layer each backend
// server runs, mapping vertices and edges onto an ordered key-value store
// after the paper's storage system (§VI):
//
//   - a vertex's attributes are one key-value pair, 'V'<id>;
//   - its out-edges of one type (label) sort together under their own
//     prefix, 'E'<src><label>, making the typed edge iteration of a
//     traversal step one prefix scan. The vertex and its edges live in
//     separate key ranges, so a hop is a point read plus a scan: one kv
//     View, and one seek in each table whose range overlaps the prefix;
//   - vertex types live in separate namespaces via a by-label index.
//
// Graph is the one storage contract: graph reads and writes, the interning
// dictionary and the property index, all on one per-server store (§VI).
// Store persists through the kv LSM store (the RocksDB stand-in), MemStore
// keeps everything in process memory for tests and large simulated clusters,
// and CachedGraph puts a read cache in front of either.
package gstore

import (
	"encoding/binary"
	"fmt"
	"sync"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
)

// Graph is the storage contract the traversal engines consume: the graph
// itself, its interning dictionary and its property index. All methods are
// safe for concurrent use. Scan callbacks return false to stop early.
type Graph interface {
	Interner
	PropertyIndex

	// PutVertex inserts or replaces a vertex and its by-label index entry.
	PutVertex(v model.Vertex) error
	// GetVertex fetches one vertex by id, decoded.
	GetVertex(id model.VertexID) (model.Vertex, bool, error)
	// ViewVertex calls fn with vertex id's encoded value (AppendVertexValue's
	// bytes) where it lies, and reports whether the vertex exists; fn is not
	// called when it does not. fn sees only well-formed values: a corrupt one
	// is ViewVertex's error, as DecodeVertexValue would report it. The bytes
	// are valid only until fn returns, and an error from fn is ViewVertex's.
	// This is the traversal's read: a step's predicate runs on the bytes
	// (model.VertexMatcher), nothing is decoded, and an empty predicate reads
	// nothing.
	ViewVertex(id model.VertexID, fn func(val []byte) error) (found bool, err error)
	// DeleteVertex removes a vertex, its index entry and its out-edges.
	DeleteVertex(id model.VertexID) error
	// PutEdge inserts or replaces one directed edge.
	PutEdge(e model.Edge) error
	// DeleteEdge removes one directed edge.
	DeleteEdge(src model.VertexID, label string, dst model.VertexID) error
	// ScanEdges visits the out-edges of src with the given label in
	// destination order — the sequential typed-edge scan of §IV-B.
	ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error
	// ScanEdgeIDs visits only the destination ids of src's out-edges with
	// the given label, in destination order. It is the packed-adjacency fast
	// path: destinations come straight from the key bytes, so no edge value
	// is fetched and no property map is decoded. Filters that need edge
	// properties must use ScanEdgeValues instead.
	ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error
	// ScanEdgeValues is ScanEdges without the decode: fn gets each
	// destination and the edge's encoded value (AppendEdgeValue's bytes),
	// valid only until fn returns — what an edge predicate
	// (property.Matcher) reads in place.
	ScanEdgeValues(src model.VertexID, label string, fn func(dst model.VertexID, val []byte) bool) error
	// ScanAllEdges visits every out-edge of src grouped by label.
	ScanAllEdges(src model.VertexID, fn func(model.Edge) bool) error
	// ScanVerticesByLabel visits the ids of all vertices with a label.
	ScanVerticesByLabel(label string, fn func(model.VertexID) bool) error
	// ScanVertices visits every vertex in id order.
	ScanVertices(fn func(model.Vertex) bool) error
	// Close releases the store.
	Close() error
}

// Key layout. IDs are big-endian so byte order equals numeric order, and
// labels are length-prefixed so one label can never be a key-prefix of
// another ("read" vs "readBy").
//
//	'V' <id:8>                      -> vertex label + props
//	'L' <len(label):uvarint> <label> <id:8> -> nil   (by-label index)
//	'E' <src:8> <len(label):uvarint> <label> <dst:8> -> edge props
const (
	tagVertex = 'V'
	tagLabel  = 'L'
	tagEdge   = 'E'
)

// vertexKey and edgeLabelPrefix append to dst, so that a read builds its key
// in an array of its own frame.
func vertexKey(dst []byte, id model.VertexID) []byte {
	return binary.BigEndian.AppendUint64(append(dst, tagVertex), uint64(id))
}

func labelKey(label string, id model.VertexID) []byte {
	b := make([]byte, 0, 2+len(label)+9)
	b = append(b, tagLabel)
	b = binary.AppendUvarint(b, uint64(len(label)))
	b = append(b, label...)
	return binary.BigEndian.AppendUint64(b, uint64(id))
}

func labelPrefix(label string) []byte {
	b := make([]byte, 0, 2+len(label))
	b = append(b, tagLabel)
	b = binary.AppendUvarint(b, uint64(len(label)))
	return append(b, label...)
}

func edgeKey(src model.VertexID, label string, dst model.VertexID) []byte {
	b := edgeLabelPrefix(make([]byte, 0, 1+8+2+len(label)+8), src, label)
	return binary.BigEndian.AppendUint64(b, uint64(dst))
}

func edgeLabelPrefix(dst []byte, src model.VertexID, label string) []byte {
	dst = binary.BigEndian.AppendUint64(append(dst, tagEdge), uint64(src))
	dst = binary.AppendUvarint(dst, uint64(len(label)))
	return append(dst, label...)
}

type prefixBuf [32]byte // an edge-label prefix on the stack; labels over 21 bytes spill

func edgePrefix(src model.VertexID) []byte {
	b := make([]byte, 0, 9)
	b = append(b, tagEdge)
	return binary.BigEndian.AppendUint64(b, uint64(src))
}

// parseEdgeKey recovers (src, label, dst) from an edge key.
func parseEdgeKey(key []byte) (src model.VertexID, label string, dst model.VertexID, err error) {
	if len(key) < 1+8+1+8 || key[0] != tagEdge {
		return 0, "", 0, fmt.Errorf("gstore: malformed edge key (%d bytes)", len(key))
	}
	src = model.VertexID(binary.BigEndian.Uint64(key[1:9]))
	rest := key[9:]
	n, sz := binary.Uvarint(rest)
	// The room left for the label must be computed in signed ints: with a
	// multi-byte uvarint the subtraction can go negative, and comparing it
	// as uint64 would wrap past any declared length.
	room := len(rest) - sz - 8
	if sz <= 0 || room < 0 || uint64(room) < n {
		return 0, "", 0, fmt.Errorf("gstore: malformed edge key label")
	}
	label = string(rest[sz : sz+int(n)])
	dst = model.VertexID(binary.BigEndian.Uint64(rest[sz+int(n):]))
	return src, label, dst, nil
}

// numStripes is the size of the Store's per-vertex write-lock stripe array.
const numStripes = 64

// Store is the persistent Graph backed by the kv LSM store.
type Store struct {
	db *kv.DB

	// stripes serializes the read-modify-write vertex updates (PutVertex,
	// DeleteVertex, index backfill) per vertex-id stripe. Without it, two
	// concurrent writers to the same vertex can interleave their get/delete/
	// put sequences and strand stale by-label or property-index rows. Edge
	// writes are single kv operations and bypass the stripes.
	stripes [numStripes]sync.Mutex

	// idxMu guards the set of property keys with secondary indexes.
	idxMu   sync.RWMutex
	indexed map[string]bool

	// dictMu serializes interning-dictionary allocation (read counter,
	// write rows, bump counter) — see dict.go.
	dictMu sync.Mutex
}

// stripe returns the write lock serializing updates to one vertex.
func (s *Store) stripe(id model.VertexID) *sync.Mutex {
	// Fibonacci hashing spreads strided and sequential id patterns evenly.
	return &s.stripes[(uint64(id)*0x9e3779b97f4a7c15)>>(64-6)]
}

var _ Graph = (*Store)(nil)

// Open opens (creating if needed) a persistent graph store in dir.
func Open(dir string, opts kv.Options) (*Store, error) {
	db, err := kv.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Store{db: db}, nil
}

// DB exposes the underlying kv store for stats and maintenance.
func (s *Store) DB() *kv.DB { return s.db }

// Close flushes and closes the store.
func (s *Store) Close() error { return s.db.Close() }

// Flush persists buffered writes to an SSTable.
func (s *Store) Flush() error { return s.db.Flush() }

// PutVertex implements Graph.
func (s *Store) PutVertex(v model.Vertex) error {
	mu := s.stripe(v.ID)
	mu.Lock()
	defer mu.Unlock()
	// Replacing a vertex whose label changed must drop the stale index row.
	old, hadOld, err := s.GetVertex(v.ID)
	if err != nil {
		return err
	}
	if hadOld && old.Label != v.Label {
		if err := s.db.Delete(labelKey(old.Label, v.ID)); err != nil {
			return err
		}
	}
	if err := s.db.Put(vertexKey(nil, v.ID), model.AppendVertexValue(nil, v)); err != nil {
		return err
	}
	if err := s.db.Put(labelKey(v.Label, v.ID), nil); err != nil {
		return err
	}
	return s.updatePropIndexes(old, hadOld, v)
}

// GetVertex implements Graph. The value is decoded where it lies in kv —
// DecodeVertexValue copies every string it keeps — so it is never copied.
func (s *Store) GetVertex(id model.VertexID) (v model.Vertex, found bool, err error) {
	var key [1 + 8]byte
	found, err = s.db.View(vertexKey(key[:0], id), func(val []byte) (err error) {
		v, err = model.DecodeVertexValue(id, val)
		return err
	})
	if err != nil || !found {
		return model.Vertex{}, false, err
	}
	return v, true, nil
}

// ViewVertex implements Graph: the value is the one in the memtable or a
// table's mapping, checked before fn sees it, and nothing is allocated.
func (s *Store) ViewVertex(id model.VertexID, fn func(val []byte) error) (bool, error) {
	var key [1 + 8]byte
	return s.db.View(vertexKey(key[:0], id), func(val []byte) error {
		if err := model.CheckVertexValue(val); err != nil {
			return err
		}
		return fn(val)
	})
}

// DeleteVertex implements Graph.
func (s *Store) DeleteVertex(id model.VertexID) error {
	mu := s.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	v, ok, err := s.GetVertex(id)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	// Collect out-edge keys first: writing during iteration is not allowed.
	var edgeKeys [][]byte
	err = s.db.Scan(edgePrefix(id), func(k, _ []byte) bool {
		edgeKeys = append(edgeKeys, append([]byte(nil), k...))
		return true
	})
	if err != nil {
		return err
	}
	for _, k := range edgeKeys {
		if err := s.db.Delete(k); err != nil {
			return err
		}
	}
	if err := s.db.Delete(labelKey(v.Label, id)); err != nil {
		return err
	}
	if err := s.db.Delete(vertexKey(nil, id)); err != nil {
		return err
	}
	return s.dropPropIndexes(v)
}

// PutEdge implements Graph.
func (s *Store) PutEdge(e model.Edge) error {
	return s.db.Put(edgeKey(e.Src, e.Label, e.Dst), model.AppendEdgeValue(nil, e))
}

// DeleteEdge implements Graph.
func (s *Store) DeleteEdge(src model.VertexID, label string, dst model.VertexID) error {
	return s.db.Delete(edgeKey(src, label, dst))
}

// ScanEdges implements Graph.
func (s *Store) ScanEdges(src model.VertexID, label string, fn func(model.Edge) bool) error {
	var prefix prefixBuf
	var scanErr error
	err := s.db.Scan(edgeLabelPrefix(prefix[:0], src, label), func(k, v []byte) bool {
		ksrc, klabel, kdst, err := parseEdgeKey(k)
		if err != nil {
			scanErr = err
			return false
		}
		e, err := model.DecodeEdgeValue(ksrc, kdst, klabel, v)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(e)
	})
	if err != nil {
		return err
	}
	return scanErr
}

// ScanEdgeIDs implements Graph. The destination is the last 8 bytes of the
// edge key, so the scan never touches edge values — a key-only pass over
// one (src,label) run, which is what makes large fan-out expansion cheap.
func (s *Store) ScanEdgeIDs(src model.VertexID, label string, fn func(model.VertexID) bool) error {
	return s.ScanEdgeValues(src, label, func(dst model.VertexID, _ []byte) bool { return fn(dst) })
}

// ScanEdgeValues implements Graph: the values are kv.Scan's, in place.
func (s *Store) ScanEdgeValues(src model.VertexID, label string, fn func(dst model.VertexID, val []byte) bool) error {
	var prefix prefixBuf
	var scanErr error
	err := s.db.Scan(edgeLabelPrefix(prefix[:0], src, label), func(k, v []byte) bool {
		if len(k) < 8 {
			scanErr = fmt.Errorf("gstore: malformed edge key (%d bytes)", len(k))
			return false
		}
		return fn(model.VertexID(binary.BigEndian.Uint64(k[len(k)-8:])), v)
	})
	if err != nil {
		return err
	}
	return scanErr
}

// edgeIDs returns the whole run ScanEdgeIDs visits, for the read cache: the
// ids gather in an array on the stack and are copied out once, at their
// number, with no append ladder.
func (s *Store) edgeIDs(src model.VertexID, label string) ([]model.VertexID, error) {
	var buf [128]model.VertexID
	ids := buf[:0]
	if err := s.ScanEdgeIDs(src, label, func(dst model.VertexID) bool {
		ids = append(ids, dst)
		return true
	}); err != nil {
		return nil, err
	}
	run := make([]model.VertexID, len(ids))
	copy(run, ids)
	return run, nil
}

// ScanAllEdges implements Graph.
func (s *Store) ScanAllEdges(src model.VertexID, fn func(model.Edge) bool) error {
	var scanErr error
	err := s.db.Scan(edgePrefix(src), func(k, v []byte) bool {
		ksrc, klabel, kdst, err := parseEdgeKey(k)
		if err != nil {
			scanErr = err
			return false
		}
		e, err := model.DecodeEdgeValue(ksrc, kdst, klabel, v)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(e)
	})
	if err != nil {
		return err
	}
	return scanErr
}

// ScanVerticesByLabel implements Graph.
func (s *Store) ScanVerticesByLabel(label string, fn func(model.VertexID) bool) error {
	prefix := labelPrefix(label)
	return s.db.Scan(prefix, func(k, _ []byte) bool {
		id := model.VertexID(binary.BigEndian.Uint64(k[len(k)-8:]))
		return fn(id)
	})
}

// ScanVertices implements Graph.
func (s *Store) ScanVertices(fn func(model.Vertex) bool) error {
	var scanErr error
	err := s.db.Scan([]byte{tagVertex}, func(k, v []byte) bool {
		id := model.VertexID(binary.BigEndian.Uint64(k[1:9]))
		vx, err := model.DecodeVertexValue(id, v)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(vx)
	})
	if err != nil {
		return err
	}
	return scanErr
}
