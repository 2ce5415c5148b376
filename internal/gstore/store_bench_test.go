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
func benchStore(b testing.TB, tables int) *Store {
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

// TestColdHopAllocs pins what a cold hop costs in objects over the graph the
// benchmarks below read: a vertex decoded where it lies in kv, so that
// GetVertex allocates what decoding the value does and nothing else (no key,
// no value copy); a typed scan that is one kv iterator whatever the number
// of tables; and a read-cache adjacency miss that allocates its run once, at
// its length, beside the iterator and the cache entry. (A miss the cache
// keeps also pays the entry's list element.)
func TestColdHopAllocs(t *testing.T) {
	const id = model.VertexID(77)
	var scans []float64
	for _, tables := range []int{1, 2, 4, 8} {
		s := benchStore(t, tables)
		v, _, _ := s.GetVertex(id)
		val := model.AppendVertexValue(nil, v)
		decode := testing.AllocsPerRun(50, func() { model.DecodeVertexValue(id, val) })
		if n := testing.AllocsPerRun(50, func() { s.GetVertex(id) }); n > decode {
			t.Errorf("%d tables: GetVertex makes %.0f allocations, decoding its value %.0f", tables, n, decode)
		}
		n := 0
		scan := testing.AllocsPerRun(50, func() {
			n = 0
			s.ScanEdgeIDs(id, "read", func(model.VertexID) bool { n++; return true })
		})
		if scan > 2 || n != benchFanout {
			t.Errorf("%d tables: ScanEdgeIDs makes %.0f allocations for %d ids, want <= 2 for %d", tables, scan, n, benchFanout)
		}
		scans = append(scans, scan)
		c := NewCachedGraph(s, 0) // keeps nothing: every read is a miss
		miss := testing.AllocsPerRun(50, func() {
			n = 0
			c.ScanEdgeIDs(id, "read", func(model.VertexID) bool { n++; return true })
		})
		if miss > 3 || n != benchFanout {
			t.Errorf("%d tables: a cache miss makes %.0f allocations for %d ids, want <= 3 for %d", tables, miss, n, benchFanout)
		}
	}
	for _, n := range scans[1:] {
		if n != scans[0] {
			t.Errorf("ScanEdgeIDs allocations at 1, 2, 4, 8 tables: %v, want them equal", scans)
			break
		}
	}
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
