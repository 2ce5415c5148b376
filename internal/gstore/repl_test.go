package gstore

import (
	"reflect"
	"testing"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

func replTestMutations() []Mutation {
	return []Mutation{
		{Op: OpPutVertex, Vertex: model.Vertex{ID: 1, Label: "User", Props: property.Map{"name": property.String("ada")}}},
		{Op: OpPutVertex, Vertex: model.Vertex{ID: 2, Label: "File"}},
		{Op: OpPutEdge, Edge: model.Edge{Src: 1, Dst: 2, Label: "read", Props: property.Map{"bytes": property.Int(42)}}},
		{Op: OpPutEdge, Edge: model.Edge{Src: 1, Dst: 2, Label: "write"}},
		{Op: OpDelEdge, Src: 1, Dst: 2, Label: "write"},
		{Op: OpPutVertex, Vertex: model.Vertex{ID: 3, Label: "User"}},
		{Op: OpDelVertex, ID: 3},
	}
}

func TestMutationBatchRoundTrip(t *testing.T) {
	ms := replTestMutations()
	got, err := DecodeBatch(EncodeBatch(ms))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ms) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ms)
	}
	// Truncations fail cleanly.
	enc := EncodeBatch(ms)
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBatch(enc[:i]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", i)
		}
	}
	if _, err := DecodeBatch(append(enc, 9)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

// Applying the same batch twice must converge to the same state —
// replication delivers at-least-once.
func TestMutationApplyIdempotent(t *testing.T) {
	ms := replTestMutations()
	apply := func(times int) *MemStore {
		g := NewMemStore()
		for i := 0; i < times; i++ {
			for _, m := range ms {
				if err := m.Apply(g); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
	once, twice := apply(1), apply(2)
	for _, g := range []*MemStore{once, twice} {
		v, ok, _ := g.GetVertex(1)
		if !ok || v.Label != "User" {
			t.Fatalf("vertex 1: %+v ok=%v", v, ok)
		}
		if _, ok, _ := g.GetVertex(3); ok {
			t.Fatal("deleted vertex 3 present")
		}
		var edges []model.Edge
		if err := g.ScanAllEdges(1, func(e model.Edge) bool { edges = append(edges, e); return true }); err != nil {
			t.Fatal(err)
		}
		if len(edges) != 1 || edges[0].Label != "read" {
			t.Fatalf("edges of 1: %+v", edges)
		}
	}
}

func TestSnapshotMutationsRebuildsPartition(t *testing.T) {
	src := NewMemStore()
	keep := func(id model.VertexID) bool { return id%2 == 0 }
	for id := model.VertexID(0); id < 20; id++ {
		if err := src.PutVertex(model.Vertex{ID: id, Label: "N"}); err != nil {
			t.Fatal(err)
		}
		// Edges to both kept and dropped destinations; routing is by source.
		if err := src.PutEdge(model.Edge{Src: id, Dst: (id + 1) % 20, Label: "next"}); err != nil {
			t.Fatal(err)
		}
	}

	dst := NewMemStore()
	var batches, total int
	err := SnapshotMutations(src, keep, 4, func(ms []Mutation) error {
		batches++
		total += len(ms)
		for _, m := range ms {
			if !keep(m.RoutingID()) {
				t.Fatalf("snapshot leaked mutation routed to %d", m.RoutingID())
			}
			if err := m.Apply(dst); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 20 { // 10 vertices + 10 edges
		t.Fatalf("snapshot emitted %d mutations in %d batches, want 20", total, batches)
	}
	if batches < 5 {
		t.Fatalf("snapshot ignored batch size: %d batches for 20 mutations", batches)
	}
	for id := model.VertexID(0); id < 20; id++ {
		_, ok, _ := dst.GetVertex(id)
		if ok != keep(id) {
			t.Fatalf("vertex %d present=%v want %v", id, ok, keep(id))
		}
		var n int
		if err := dst.ScanAllEdges(id, func(model.Edge) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if want := 0; keep(id) {
			want = 1
			if n != want {
				t.Fatalf("vertex %d: %d edges want %d", id, n, want)
			}
		} else if n != 0 {
			t.Fatalf("vertex %d: %d edges want 0", id, n)
		}
	}
}

func sampleMutations() []Mutation {
	return []Mutation{
		{Op: OpPutVertex, Vertex: model.Vertex{ID: 7, Label: "file", Props: property.Map{"size": property.Int(42)}}},
		{Op: OpPutEdge, Edge: model.Edge{Src: 7, Dst: 9, Label: "run", Props: property.Map{"ts": property.Int(100)}}},
		{Op: OpDelEdge, Src: 7, Label: "run", Dst: 9},
		{Op: OpDelVertex, ID: 9},
		{Op: OpIntern, ID: model.InternedID(2, 5), Name: "job-1"},
	}
}

// FuzzDecodeBatch asserts the replication mutation-batch decoder never
// panics on arbitrary input, and that anything it accepts is a fixed point:
// re-encoding the decoded batch and decoding again yields the same
// mutations. (Byte-level stability is not required — Uvarint tolerates
// non-minimal length encodings, which re-encode shorter.)
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(sampleMutations()))
	f.Add([]byte{0x05})                         // declares 5 mutations, provides none
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd count
	f.Fuzz(func(t *testing.T, b []byte) {
		ms, err := DecodeBatch(b)
		if err != nil {
			return
		}
		ms2, err := DecodeBatch(EncodeBatch(ms))
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(ms2, ms) {
			t.Fatalf("round trip changed batch: %#v -> %#v", ms, ms2)
		}
	})
}
