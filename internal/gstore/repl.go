package gstore

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/model"
)

// Replication ships graph mutations, not raw kv WAL records: a mutation
// batch replays identically on any Graph implementation (Store or
// MemStore), and each replica regenerates its own index rows locally, so
// followers never depend on the primary's kv file layout. The kv WAL stays
// what it is — each replica's private local-durability log.
//
// All four ops are idempotent upserts/deletes, which is what makes the
// protocol's at-least-once delivery (gap re-ship, snapshot/live-tail
// overlap during handoff) safe to apply without sequence bookkeeping at
// this layer.

// MutOp discriminates mutation payloads.
type MutOp uint8

const (
	// OpPutVertex upserts a vertex (Vertex field).
	OpPutVertex MutOp = iota + 1
	// OpDelVertex deletes a vertex and its out-edges (ID field).
	OpDelVertex
	// OpPutEdge upserts a directed edge (Edge field).
	OpPutEdge
	// OpDelEdge deletes a directed edge (Src, Label, Dst fields).
	OpDelEdge
	// OpIntern installs one interning-dictionary pair (Name, ID fields).
	// The ID was allocated by the partition primary; replicas replay it via
	// Interner.ApplyIntern, which is idempotent like every other op.
	OpIntern
)

// Mutation is one replicated graph write.
type Mutation struct {
	Op     MutOp
	Vertex model.Vertex // OpPutVertex
	Edge   model.Edge   // OpPutEdge
	ID     model.VertexID
	Src    model.VertexID
	Dst    model.VertexID
	Label  string
	Name   string // OpIntern: the external name bound to ID
}

// RoutingID returns the vertex whose partition owns this mutation: the
// vertex itself, or an edge's source (edges live with their source vertex,
// the edge-cut placement of §VI).
func (m Mutation) RoutingID() model.VertexID {
	switch m.Op {
	case OpPutVertex:
		return m.Vertex.ID
	case OpDelVertex:
		return m.ID
	case OpPutEdge:
		return m.Edge.Src
	case OpIntern:
		// The interned id embeds its partition, so routing by it lands the
		// mutation on the allocating partition.
		return m.ID
	default:
		return m.Src
	}
}

// Apply replays the mutation onto g.
func (m Mutation) Apply(g Graph) error {
	switch m.Op {
	case OpPutVertex:
		return g.PutVertex(m.Vertex)
	case OpDelVertex:
		return g.DeleteVertex(m.ID)
	case OpPutEdge:
		return g.PutEdge(m.Edge)
	case OpDelEdge:
		return g.DeleteEdge(m.Src, m.Label, m.Dst)
	case OpIntern:
		return g.ApplyIntern(m.Name, m.ID)
	default:
		return fmt.Errorf("gstore: unknown mutation op %d", m.Op)
	}
}

// AppendMutation serializes one mutation, appending to b. The encoding
// reuses the storage value codecs, so a replicated vertex round-trips
// through exactly the bytes the store would persist.
func AppendMutation(b []byte, m Mutation) []byte {
	b = append(b, byte(m.Op))
	switch m.Op {
	case OpPutVertex:
		b = binary.AppendUvarint(b, uint64(m.Vertex.ID))
		b = appendLenPrefixed(b, model.AppendVertexValue(nil, m.Vertex))
	case OpDelVertex:
		b = binary.AppendUvarint(b, uint64(m.ID))
	case OpPutEdge:
		b = binary.AppendUvarint(b, uint64(m.Edge.Src))
		b = binary.AppendUvarint(b, uint64(m.Edge.Dst))
		b = appendLenPrefixed(b, []byte(m.Edge.Label))
		b = appendLenPrefixed(b, model.AppendEdgeValue(nil, m.Edge))
	case OpDelEdge:
		b = binary.AppendUvarint(b, uint64(m.Src))
		b = binary.AppendUvarint(b, uint64(m.Dst))
		b = appendLenPrefixed(b, []byte(m.Label))
	case OpIntern:
		b = binary.AppendUvarint(b, uint64(m.ID))
		b = appendLenPrefixed(b, []byte(m.Name))
	}
	return b
}

func appendLenPrefixed(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// EncodeBatch serializes a mutation batch for a replication append or
// snapshot chunk payload.
func EncodeBatch(ms []Mutation) []byte {
	b := binary.AppendUvarint(nil, uint64(len(ms)))
	for _, m := range ms {
		b = AppendMutation(b, m)
	}
	return b
}

// DecodeBatch parses an EncodeBatch payload.
func DecodeBatch(b []byte) ([]Mutation, error) {
	d := mutDecoder{b: b}
	n := d.uvarint()
	if n > uint64(len(b)) { // every mutation takes >= 1 byte
		return nil, fmt.Errorf("gstore: declared %d mutations in %d bytes", n, len(b))
	}
	ms := make([]Mutation, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		ms = append(ms, d.mutation())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("gstore: %d trailing bytes in mutation batch", len(d.b))
	}
	return ms, nil
}

type mutDecoder struct {
	b   []byte
	err error
}

func (d *mutDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.b)
	if sz <= 0 {
		d.err = fmt.Errorf("gstore: truncated mutation")
		return 0
	}
	d.b = d.b[sz:]
	return v
}

func (d *mutDecoder) lenPrefixed() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("gstore: truncated mutation payload")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *mutDecoder) mutation() Mutation {
	if d.err != nil {
		return Mutation{}
	}
	if len(d.b) == 0 {
		d.err = fmt.Errorf("gstore: truncated mutation op")
		return Mutation{}
	}
	op := MutOp(d.b[0])
	d.b = d.b[1:]
	m := Mutation{Op: op}
	switch op {
	case OpPutVertex:
		id := model.VertexID(d.uvarint())
		val := d.lenPrefixed()
		if d.err != nil {
			return Mutation{}
		}
		v, err := model.DecodeVertexValue(id, val)
		if err != nil {
			d.err = err
			return Mutation{}
		}
		m.Vertex = v
	case OpDelVertex:
		m.ID = model.VertexID(d.uvarint())
	case OpPutEdge:
		src := model.VertexID(d.uvarint())
		dst := model.VertexID(d.uvarint())
		label := string(d.lenPrefixed())
		val := d.lenPrefixed()
		if d.err != nil {
			return Mutation{}
		}
		e, err := model.DecodeEdgeValue(src, dst, label, val)
		if err != nil {
			d.err = err
			return Mutation{}
		}
		m.Edge = e
	case OpDelEdge:
		m.Src = model.VertexID(d.uvarint())
		m.Dst = model.VertexID(d.uvarint())
		m.Label = string(d.lenPrefixed())
	case OpIntern:
		m.ID = model.VertexID(d.uvarint())
		m.Name = string(d.lenPrefixed())
	default:
		d.err = fmt.Errorf("gstore: unknown mutation op %d", op)
	}
	return m
}

// SnapshotMutations scans g and emits every vertex and edge whose routing
// vertex satisfies keep as OpPutVertex/OpPutEdge mutations, in batches of
// batchSize, calling emit for each batch. It is the producer side of a
// shard handoff: applied in order to an empty replica, the batches
// reconstruct the partition. Writes that land during the scan are covered
// by the live tail the primary forwards alongside the snapshot.
func SnapshotMutations(g Graph, keep func(model.VertexID) bool, batchSize int, emit func([]Mutation) error) error {
	if batchSize <= 0 {
		batchSize = 256
	}
	batch := make([]Mutation, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := emit(batch)
		batch = batch[:0]
		return err
	}
	var ids []model.VertexID
	var scanErr error
	// Dictionary entries ship first: a replica that can resolve names from
	// the start can serve reads the moment its graph rows land, and intern
	// pairs are standalone (no vertex dependency), so fronting them is free.
	err := g.ScanInterned(func(name string, id model.VertexID) bool {
		if !keep(id) {
			return true
		}
		batch = append(batch, Mutation{Op: OpIntern, ID: id, Name: name})
		if len(batch) >= batchSize {
			if scanErr = flush(); scanErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	err = g.ScanVertices(func(v model.Vertex) bool {
		if !keep(v.ID) {
			return true
		}
		ids = append(ids, v.ID)
		batch = append(batch, Mutation{Op: OpPutVertex, Vertex: v})
		if len(batch) >= batchSize {
			if scanErr = flush(); scanErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	// Edges ship after their source vertices so a replica never holds an
	// edge for a vertex it has not yet seen.
	for _, id := range ids {
		scanErr = nil
		err = g.ScanAllEdges(id, func(e model.Edge) bool {
			batch = append(batch, Mutation{Op: OpPutEdge, Edge: e})
			if len(batch) >= batchSize {
				if scanErr = flush(); scanErr != nil {
					return false
				}
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}
	}
	return flush()
}
