package gstore

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/model"
)

// The interning dictionary maps external string vertex names to dense
// interned ids (model.InternedID) and back. Each partition allocates from
// its own counter, and the id embeds the partition, so allocation needs no
// cross-partition coordination and routing needs no dictionary.
//
// The mapping is replicated state: the partition primary allocates under
// its write path (an OpIntern mutation per new name, shipped through the
// same quorum machinery as graph writes), followers and joining servers
// replay ApplyIntern, and SnapshotMutations emits the kept partitions'
// entries so a shard handoff reconstructs the dictionary alongside the
// graph. Strings are materialized from the id→name direction only at the
// client boundary (rtn() results, gtq output, traces).
//
// Store key layout (alongside the graph rows):
//
//	'D' <name>          -> id:8 (big-endian)   name → id
//	'N' <id:8>          -> name                id → name
//	'C' <part:uvarint>  -> next counter:8      per-partition allocator
const (
	tagDictName = 'D'
	tagDictID   = 'N'
	tagDictCtr  = 'C'
)

// Interner is the dictionary half of Graph. All methods are safe for
// concurrent use.
type Interner interface {
	// Intern returns the interned id for name, allocating the next dense id
	// of part if the name is new. Only the partition's current primary may
	// allocate; replicas receive the result via ApplyIntern.
	Intern(name string, part int) (model.VertexID, error)
	// ApplyIntern installs a primary-allocated (name, id) pair, advancing
	// the local allocator past it. Idempotent: replaying a pair already
	// present is a no-op, which is what makes at-least-once replication and
	// snapshot/live-tail overlap safe.
	ApplyIntern(name string, id model.VertexID) error
	// LookupID resolves a name to its interned id.
	LookupID(name string) (model.VertexID, bool, error)
	// LookupName resolves an interned id back to its name — the client-
	// boundary materialization direction.
	LookupName(id model.VertexID) (string, bool, error)
	// ScanInterned visits every (name, id) pair in id order. Return false
	// to stop early.
	ScanInterned(fn func(name string, id model.VertexID) bool) error
}

func dictNameKey(name string) []byte {
	b := make([]byte, 0, 1+len(name))
	b = append(b, tagDictName)
	return append(b, name...)
}

func dictIDKey(id model.VertexID) []byte {
	b := make([]byte, 0, 9)
	b = append(b, tagDictID)
	return binary.BigEndian.AppendUint64(b, uint64(id))
}

func dictCtrKey(part int) []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen64)
	b = append(b, tagDictCtr)
	return binary.AppendUvarint(b, uint64(part))
}

// Intern implements Interner.
func (s *Store) Intern(name string, part int) (model.VertexID, error) {
	if name == "" {
		return 0, fmt.Errorf("gstore: cannot intern empty name")
	}
	if part < 0 || part > model.MaxInternPart {
		return 0, fmt.Errorf("gstore: partition %d out of interning range", part)
	}
	s.dictMu.Lock()
	defer s.dictMu.Unlock()
	if val, ok, err := s.db.Get(dictNameKey(name)); err != nil {
		return 0, err
	} else if ok {
		return model.VertexID(binary.BigEndian.Uint64(val)), nil
	}
	ctr := uint64(0)
	if val, ok, err := s.db.Get(dictCtrKey(part)); err != nil {
		return 0, err
	} else if ok {
		ctr = binary.BigEndian.Uint64(val)
	}
	if ctr > model.MaxInternCtr {
		return 0, fmt.Errorf("gstore: partition %d interning counter exhausted", part)
	}
	id := model.InternedID(part, ctr)
	if err := s.putInternLocked(name, id); err != nil {
		return 0, err
	}
	return id, nil
}

// ApplyIntern implements Interner.
func (s *Store) ApplyIntern(name string, id model.VertexID) error {
	if !id.Interned() {
		return fmt.Errorf("gstore: ApplyIntern of non-interned id %v", id)
	}
	s.dictMu.Lock()
	defer s.dictMu.Unlock()
	return s.putInternLocked(name, id)
}

// putInternLocked writes both directions and advances the partition's
// allocator past id. Caller holds dictMu.
func (s *Store) putInternLocked(name string, id model.VertexID) error {
	if err := s.db.Put(dictNameKey(name), binary.BigEndian.AppendUint64(nil, uint64(id))); err != nil {
		return err
	}
	if err := s.db.Put(dictIDKey(id), []byte(name)); err != nil {
		return err
	}
	part, next := id.InternedPartition(), id.InternedCounter()+1
	cur := uint64(0)
	if val, ok, err := s.db.Get(dictCtrKey(part)); err != nil {
		return err
	} else if ok {
		cur = binary.BigEndian.Uint64(val)
	}
	if next > cur {
		return s.db.Put(dictCtrKey(part), binary.BigEndian.AppendUint64(nil, next))
	}
	return nil
}

// LookupID implements Interner.
func (s *Store) LookupID(name string) (model.VertexID, bool, error) {
	val, ok, err := s.db.Get(dictNameKey(name))
	if err != nil || !ok {
		return 0, false, err
	}
	return model.VertexID(binary.BigEndian.Uint64(val)), true, nil
}

// LookupName implements Interner.
func (s *Store) LookupName(id model.VertexID) (string, bool, error) {
	val, ok, err := s.db.Get(dictIDKey(id))
	if err != nil || !ok {
		return "", false, err
	}
	return string(val), true, nil
}

// ScanInterned implements Interner.
func (s *Store) ScanInterned(fn func(name string, id model.VertexID) bool) error {
	return s.db.Scan([]byte{tagDictID}, func(k, v []byte) bool {
		return fn(string(v), model.VertexID(binary.BigEndian.Uint64(k[1:9])))
	})
}

// memDict is the MemStore side of the dictionary.
type memDict struct {
	names map[string]model.VertexID
	ids   map[model.VertexID]string
	ctrs  map[int]uint64
}

// Intern implements Interner.
func (m *MemStore) Intern(name string, part int) (model.VertexID, error) {
	if name == "" {
		return 0, fmt.Errorf("gstore: cannot intern empty name")
	}
	if part < 0 || part > model.MaxInternPart {
		return 0, fmt.Errorf("gstore: partition %d out of interning range", part)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dictInitLocked()
	if id, ok := m.dict.names[name]; ok {
		return id, nil
	}
	ctr := m.dict.ctrs[part]
	if ctr > model.MaxInternCtr {
		return 0, fmt.Errorf("gstore: partition %d interning counter exhausted", part)
	}
	id := model.InternedID(part, ctr)
	m.putInternLocked(name, id)
	return id, nil
}

// ApplyIntern implements Interner.
func (m *MemStore) ApplyIntern(name string, id model.VertexID) error {
	if !id.Interned() {
		return fmt.Errorf("gstore: ApplyIntern of non-interned id %v", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dictInitLocked()
	m.putInternLocked(name, id)
	return nil
}

func (m *MemStore) dictInitLocked() {
	if m.dict.names == nil {
		m.dict.names = make(map[string]model.VertexID)
		m.dict.ids = make(map[model.VertexID]string)
		m.dict.ctrs = make(map[int]uint64)
	}
}

func (m *MemStore) putInternLocked(name string, id model.VertexID) {
	m.dict.names[name] = id
	m.dict.ids[id] = name
	if next := id.InternedCounter() + 1; next > m.dict.ctrs[id.InternedPartition()] {
		m.dict.ctrs[id.InternedPartition()] = next
	}
}

// LookupID implements Interner.
func (m *MemStore) LookupID(name string) (model.VertexID, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.dict.names[name]
	return id, ok, nil
}

// LookupName implements Interner.
func (m *MemStore) LookupName(id model.VertexID) (string, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name, ok := m.dict.ids[id]
	return name, ok, nil
}

// ScanInterned implements Interner.
func (m *MemStore) ScanInterned(fn func(name string, id model.VertexID) bool) error {
	m.mu.RLock()
	ids := make([]model.VertexID, 0, len(m.dict.ids))
	for id := range m.dict.ids {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sortIDs(ids)
	for _, id := range ids {
		m.mu.RLock()
		name, ok := m.dict.ids[id]
		m.mu.RUnlock()
		if ok && !fn(name, id) {
			return nil
		}
	}
	return nil
}
