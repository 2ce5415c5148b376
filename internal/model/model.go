// Package model defines the property-graph data model shared by every
// GraphTrek component: vertices and directed, labeled edges, each carrying a
// map of typed properties. It matches the metadata graph of the paper's
// Fig. 1 — users, executions and files as vertices; run/exe/read/write
// relationships as edges.
package model

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/property"
)

// VertexID identifies a vertex globally across the cluster. IDs are dense
// unsigned integers assigned by the loader / generator; the partitioner
// maps them to owner servers.
//
// IDs with the top bit set are interned ids: dense integers allocated by a
// per-partition dictionary when external string names are ingested (see
// gstore's Interner). An interned id embeds its owning partition so routing
// never needs the dictionary:
//
//	bit  63      intern flag
//	bits 62..44  owning partition (19 bits)
//	bits 43..0   per-partition allocation counter (44 bits)
//
// Plain loader/generator ids never set bit 63 in practice (the generators
// assign small dense ranges), so the two id spaces do not collide and
// existing data keeps its exact pre-interning routing.
type VertexID uint64

const (
	internFlag = uint64(1) << 63
	// InternPartBits is the width of the partition field in an interned id.
	InternPartBits = 19
	// InternCtrBits is the width of the per-partition counter field.
	InternCtrBits = 44
	// MaxInternPart is the largest partition embeddable in an interned id.
	MaxInternPart = (1 << InternPartBits) - 1
	// MaxInternCtr is the largest per-partition counter value.
	MaxInternCtr = (1 << InternCtrBits) - 1
)

// InternedID packs a partition and a per-partition counter into an interned
// vertex id. Callers must keep part <= MaxInternPart and ctr <= MaxInternCtr.
func InternedID(part int, ctr uint64) VertexID {
	return VertexID(internFlag | uint64(part)<<InternCtrBits | ctr&MaxInternCtr)
}

// Interned reports whether the id was allocated by the interning dictionary.
func (id VertexID) Interned() bool { return uint64(id)&internFlag != 0 }

// InternedPartition returns the partition embedded in an interned id.
// Meaningless for non-interned ids.
func (id VertexID) InternedPartition() int {
	return int(uint64(id) >> InternCtrBits & MaxInternPart)
}

// InternedCounter returns the per-partition counter of an interned id.
func (id VertexID) InternedCounter() uint64 { return uint64(id) & MaxInternCtr }

// HashName is the stable 64-bit hash (FNV-1a) of an external vertex name.
// The interning dictionary derives an interned id's partition by routing
// HashName(name) through the ordinary partitioner, so a name's placement is
// the same one its hash would have received as a plain vertex id.
func HashName(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// String renders the id for logs and CLI output.
func (id VertexID) String() string { return fmt.Sprintf("v%d", uint64(id)) }

// Vertex is one entity in the metadata graph.
type Vertex struct {
	ID    VertexID
	Label string // entity type: "User", "Execution", "File", ...
	Props property.Map
}

// Edge is one directed, labeled relationship.
type Edge struct {
	Src   VertexID
	Dst   VertexID
	Label string // relationship type: "run", "read", "write", ...
	Props property.Map
}

// AppendVertexValue appends the storage encoding of a vertex's label and
// properties (the ID lives in the key) to b.
func AppendVertexValue(b []byte, v Vertex) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.Label)))
	b = append(b, v.Label...)
	return property.AppendMap(b, v.Props)
}

// splitVertexValue cuts a vertex payload into its label and its encoded
// property map, both aliasing b.
func splitVertexValue(b []byte) (label, props []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return nil, nil, fmt.Errorf("model: truncated vertex label")
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// DecodeVertexValue decodes a vertex payload produced by AppendVertexValue.
func DecodeVertexValue(id VertexID, b []byte) (Vertex, error) {
	label, b, err := splitVertexValue(b)
	if err != nil {
		return Vertex{}, err
	}
	v := Vertex{ID: id, Label: string(label)}
	props, rest, err := property.ConsumeMap(b)
	if err != nil {
		return Vertex{}, fmt.Errorf("model: vertex %v: %w", id, err)
	}
	if len(rest) != 0 {
		return Vertex{}, fmt.Errorf("model: vertex %v: %d trailing bytes", id, len(rest))
	}
	v.Props = props
	return v, nil
}

// AppendEdgeValue appends the storage encoding of an edge's properties
// (src, label and dst live in the key) to b.
func AppendEdgeValue(b []byte, e Edge) []byte {
	return property.AppendMap(b, e.Props)
}

// DecodeEdgeValue decodes an edge payload produced by AppendEdgeValue.
func DecodeEdgeValue(src, dst VertexID, label string, b []byte) (Edge, error) {
	props, rest, err := property.ConsumeMap(b)
	if err != nil {
		return Edge{}, fmt.Errorf("model: edge %v-%s->%v: %w", src, label, dst, err)
	}
	if len(rest) != 0 {
		return Edge{}, fmt.Errorf("model: edge %v-%s->%v: trailing bytes", src, label, dst)
	}
	return Edge{Src: src, Dst: dst, Label: label, Props: props}, nil
}
