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

// TestColdHopAllocs pins what a hop costs in objects over the graph the
// benchmarks below read. A vertex is viewed where it lies in kv with no
// allocation, and GetVertex allocates what decoding the value does and
// nothing else. A typed scan, with or without the edge values, allocates
// nothing whatever the number of tables, since kv's Scan reuses a pooled
// iterator, and an index lookup allocates only its answer. Through the
// read cache, a hit of either shape allocates nothing, a vertex miss only
// the copy it keeps, and a run miss its run once, at its length.
func TestColdHopAllocs(t *testing.T) {
	const id = model.VertexID(77)
	accept := func([]byte) error { return nil }
	n := 0
	count := func(model.VertexID) bool { n++; return true }
	budget := func(what string, tables int, limit float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(50, fn); got > limit {
			t.Errorf("%d tables: %s makes %.0f allocations, want <= %.0f", tables, what, got, limit)
		}
	}
	for _, tables := range []int{1, 2, 4, 8} {
		s := benchStore(t, tables)
		v, _, _ := s.GetVertex(id)
		val := model.AppendVertexValue(nil, v)
		decode := testing.AllocsPerRun(50, func() { model.DecodeVertexValue(id, val) })
		budget("GetVertex", tables, decode, func() { s.GetVertex(id) })
		budget("Store.ViewVertex", tables, 0, func() { s.ViewVertex(id, accept) })
		kind := property.String("kind-077")
		budget("LookupVertices", tables, 1, func() { s.LookupVertices("kind", kind) })
		budget("ScanEdgeValues", tables, 0, func() {
			s.ScanEdgeValues(id, "read", func(model.VertexID, []byte) bool { return true })
		})
		scan := testing.AllocsPerRun(50, func() {
			n = 0
			s.ScanEdgeIDs(id, "read", count)
		})
		if scan != 0 || n != benchFanout {
			t.Errorf("%d tables: ScanEdgeIDs makes %.0f allocations for %d ids, want 0 for %d", tables, scan, n, benchFanout)
		}
		miss := NewCachedGraph(s, 0) // keeps nothing: every read is a miss
		budget("a vertex miss", tables, 1, func() { miss.ViewVertex(id, accept) })
		budget("a run miss", tables, 1, func() { miss.ScanEdgeIDs(id, "read", count) })
		hit := NewCachedGraph(s, 1<<20)
		hit.ViewVertex(id, accept)
		hit.ScanEdgeIDs(id, "read", count)
		budget("a vertex hit", tables, 0, func() { hit.ViewVertex(id, accept) })
		n = 0
		budget("a run hit", tables, 0, func() { hit.ScanEdgeIDs(id, "read", count) })
		if st := hit.CacheStats(); st.VtxMisses != 1 || st.AdjMisses != 1 || n != 51*benchFanout {
			t.Errorf("%d tables: the hits were not hits: %+v, %d ids", tables, st, n)
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

// BenchmarkStoreViewVertex is the traversal's read beside GetVertex: the same
// lookup, with the value judged in place instead of decoded.
func BenchmarkStoreViewVertex(b *testing.B) {
	m := model.VertexMatcher{Label: "File"}
	judge := func(val []byte) error {
		_, err := m.Match(val)
		return err
	}
	benchOverTables(b, func(b *testing.B, s *Store, i int) {
		if ok, err := s.ViewVertex(model.VertexID(i*7%benchVertices+1), judge); err != nil || !ok {
			b.Fatal(ok, err)
		}
	})
}

// BenchmarkCachedMiss reads through a read cache of fanout-cold's size (16 KiB
// a shard) over a one-table store, cycling through every vertex, so that
// nearly every read misses and is inserted over an eviction.
func BenchmarkCachedMiss(b *testing.B) {
	s := benchStore(b, 1)
	m := model.VertexMatcher{Label: "File"}
	judge := func(val []byte) error {
		_, err := m.Match(val)
		return err
	}
	sink := func(model.VertexID) bool { return true }
	for _, bc := range []struct {
		name string
		read func(c *CachedGraph, id model.VertexID)
	}{
		{"vertex", func(c *CachedGraph, id model.VertexID) { c.ViewVertex(id, judge) }},
		{"adj", func(c *CachedGraph, id model.VertexID) { c.ScanEdgeIDs(id, "read", sink) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewCachedGraph(s, cacheShards*16<<10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.read(c, model.VertexID(i*7%benchVertices+1))
			}
		})
	}
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
