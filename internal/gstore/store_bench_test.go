package gstore

import (
	"fmt"
	"testing"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// The four storage operators a traversal is made of, each against the same
// graph spread over 1, 2, 4 and 8 kv tables (ROADMAP item 2): under the
// paper's layout argument a hop costs the same whatever the store's flush
// history, so each operator's line over the table count should be flat.
// EXPERIMENTS.md keeps the lines.

const (
	benchVertices = 2048
	benchFanout   = 16
	benchKinds    = 128 // a LookupVertices answer is 16 ids
)

// benchStore writes the graph in `tables` rounds, flushing after each, so
// every table's key range covers the whole graph: round r holds the vertices
// (and their edges and index rows) whose id is r modulo the table count.
func benchStore(b *testing.B, tables int) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), kv.Options{CompactAt: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.EnableIndex("kind"); err != nil {
		b.Fatal(err)
	}
	for r := 0; r < tables; r++ {
		for id := r; id < benchVertices; id += tables {
			v := model.Vertex{ID: model.VertexID(id + 1), Label: "File", Props: property.Map{
				"kind": property.String(fmt.Sprintf("kind-%03d", id%benchKinds)),
				"size": property.Int(int64(id)),
			}}
			if err := s.PutVertex(v); err != nil {
				b.Fatal(err)
			}
			for e := 0; e < benchFanout; e++ {
				dst := model.VertexID((id*31+e*97)%benchVertices + 1)
				if err := s.PutEdge(model.Edge{Src: v.ID, Dst: dst, Label: "read"}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if got := s.DB().Stats().NumTables; got != tables {
		b.Fatalf("store has %d tables, want %d", got, tables)
	}
	return s
}

func benchOverTables(b *testing.B, op func(b *testing.B, s *Store, i int)) {
	for _, tables := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			s := benchStore(b, tables)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b, s, i)
			}
		})
	}
}

func BenchmarkStoreGetVertex(b *testing.B) {
	benchOverTables(b, func(b *testing.B, s *Store, i int) {
		if _, ok, err := s.GetVertex(model.VertexID(i*7%benchVertices + 1)); err != nil || !ok {
			b.Fatal(ok, err)
		}
	})
}

func BenchmarkStoreScanEdgeIDs(b *testing.B) {
	benchOverTables(b, func(b *testing.B, s *Store, i int) {
		n := 0
		err := s.ScanEdgeIDs(model.VertexID(i*7%benchVertices+1), "read", func(model.VertexID) bool { n++; return true })
		if err != nil || n == 0 {
			b.Fatal(n, err)
		}
	})
}

func BenchmarkStoreScanEdges(b *testing.B) {
	benchOverTables(b, func(b *testing.B, s *Store, i int) {
		n := 0
		err := s.ScanEdges(model.VertexID(i*7%benchVertices+1), "read", func(model.Edge) bool { n++; return true })
		if err != nil || n == 0 {
			b.Fatal(n, err)
		}
	})
}

func BenchmarkStoreLookupVertices(b *testing.B) {
	benchOverTables(b, func(b *testing.B, s *Store, i int) {
		ids, err := s.LookupVertices("kind", property.String(fmt.Sprintf("kind-%03d", i%benchKinds)))
		if err != nil || len(ids) != benchVertices/benchKinds {
			b.Fatal(len(ids), err)
		}
	})
}
