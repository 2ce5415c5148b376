package gstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// stores returns one instance of each Graph implementation for a subtest.
func stores(t *testing.T) map[string]Graph {
	t.Helper()
	disk, err := Open(t.TempDir(), kv.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Graph{"disk": disk, "mem": NewMemStore()}
}

func TestVertexCRUD(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			v := model.Vertex{ID: 7, Label: "User", Props: property.Map{"name": property.String("sam")}}
			if err := g.PutVertex(v); err != nil {
				t.Fatal(err)
			}
			got, ok, err := g.GetVertex(7)
			if err != nil || !ok {
				t.Fatalf("GetVertex: %v %v", ok, err)
			}
			if got.Label != "User" || !got.Props["name"].Equal(property.String("sam")) {
				t.Errorf("got %+v", got)
			}
			if _, ok, _ := g.GetVertex(8); ok {
				t.Error("absent vertex found")
			}
			if err := g.DeleteVertex(7); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := g.GetVertex(7); ok {
				t.Error("deleted vertex found")
			}
			// Deleting an absent vertex is a no-op.
			if err := g.DeleteVertex(99); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVertexLabelChangeUpdatesIndex(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			g.PutVertex(model.Vertex{ID: 1, Label: "File"})
			g.PutVertex(model.Vertex{ID: 1, Label: "Executable"})
			if ids := collectByLabel(t, g, "File"); len(ids) != 0 {
				t.Errorf("stale File index: %v", ids)
			}
			if ids := collectByLabel(t, g, "Executable"); !reflect.DeepEqual(ids, []model.VertexID{1}) {
				t.Errorf("Executable index: %v", ids)
			}
		})
	}
}

func collectByLabel(t *testing.T, g Graph, label string) []model.VertexID {
	t.Helper()
	var ids []model.VertexID
	if err := g.ScanVerticesByLabel(label, func(id model.VertexID) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestEdgeCRUDAndTypedScan(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// Vertex 1 has read edges to 10,11 and a readBy edge to 12.
			// The labels share a prefix on purpose: the scan must not leak
			// across labels.
			for _, e := range []model.Edge{
				{Src: 1, Dst: 11, Label: "read"},
				{Src: 1, Dst: 10, Label: "read", Props: property.Map{"ts": property.Int(5)}},
				{Src: 1, Dst: 12, Label: "readBy"},
				{Src: 2, Dst: 10, Label: "read"},
			} {
				if err := g.PutEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			var dsts []model.VertexID
			err := g.ScanEdges(1, "read", func(e model.Edge) bool {
				dsts = append(dsts, e.Dst)
				if e.Dst == 10 && !e.Props["ts"].Equal(property.Int(5)) {
					t.Errorf("edge props lost: %+v", e)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dsts, []model.VertexID{10, 11}) {
				t.Errorf("read scan = %v, want sorted [10 11]", dsts)
			}
			if err := g.DeleteEdge(1, "read", 10); err != nil {
				t.Fatal(err)
			}
			dsts = nil
			g.ScanEdges(1, "read", func(e model.Edge) bool { dsts = append(dsts, e.Dst); return true })
			if !reflect.DeepEqual(dsts, []model.VertexID{11}) {
				t.Errorf("after delete = %v", dsts)
			}
		})
	}
}

func TestScanAllEdgesGroupsByLabel(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, e := range []model.Edge{
				{Src: 1, Dst: 3, Label: "write"},
				{Src: 1, Dst: 1, Label: "run"},
				{Src: 1, Dst: 2, Label: "run"},
			} {
				g.PutEdge(e)
			}
			var got []string
			g.ScanAllEdges(1, func(e model.Edge) bool {
				got = append(got, fmt.Sprintf("%s-%d", e.Label, e.Dst))
				return true
			})
			want := []string{"run-1", "run-2", "write-3"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ScanAllEdges = %v, want %v (grouped by label)", got, want)
			}
		})
	}
}

func TestScanEarlyTermination(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				g.PutVertex(model.Vertex{ID: model.VertexID(i), Label: "File"})
				g.PutEdge(model.Edge{Src: 1, Dst: model.VertexID(100 + i), Label: "read"})
			}
			count := 0
			g.ScanEdges(1, "read", func(model.Edge) bool { count++; return count < 3 })
			if count != 3 {
				t.Errorf("edge scan visited %d, want 3", count)
			}
			count = 0
			g.ScanVerticesByLabel("File", func(model.VertexID) bool { count++; return count < 4 })
			if count != 4 {
				t.Errorf("label scan visited %d, want 4", count)
			}
			count = 0
			g.ScanVertices(func(model.Vertex) bool { count++; return false })
			if count != 1 {
				t.Errorf("vertex scan visited %d, want 1", count)
			}
		})
	}
}

func TestDeleteVertexRemovesOutEdges(t *testing.T) {
	for name, g := range stores(t) {
		t.Run(name, func(t *testing.T) {
			g.PutVertex(model.Vertex{ID: 1, Label: "User"})
			g.PutEdge(model.Edge{Src: 1, Dst: 2, Label: "run"})
			g.DeleteVertex(1)
			n := 0
			g.ScanEdges(1, "run", func(model.Edge) bool { n++; return true })
			if n != 0 {
				t.Error("out-edges should be removed with the vertex")
			}
		})
	}
}

func TestEdgeKeyRoundTripQuick(t *testing.T) {
	f := func(src, dst uint64, labelBytes []byte) bool {
		label := string(labelBytes)
		key := edgeKey(model.VertexID(src), label, model.VertexID(dst))
		s, l, d, err := parseEdgeKey(key)
		return err == nil && uint64(s) == src && l == label && uint64(d) == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseEdgeKeyErrors(t *testing.T) {
	if _, _, _, err := parseEdgeKey([]byte("short")); err == nil {
		t.Error("short key should error")
	}
	key := edgeKey(1, "run", 2)
	key[0] = 'X'
	if _, _, _, err := parseEdgeKey(key); err == nil {
		t.Error("wrong tag should error")
	}
}

func TestLabelPrefixNoCollision(t *testing.T) {
	// "read" must not be a key-prefix of "readBy" thanks to the length
	// prefix in the encoding.
	p1 := string(edgeLabelPrefix(nil, 1, "read"))
	p2 := string(edgeLabelPrefix(nil, 1, "readBy"))
	if len(p2) >= len(p1) && p2[:len(p1)] == p1 {
		t.Error("edge label prefixes collide")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"name": property.String("john")}})
	g.PutEdge(model.Edge{Src: 1, Dst: 2, Label: "run"})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	v, ok, err := g2.GetVertex(1)
	if err != nil || !ok || v.Props["name"].Str() != "john" {
		t.Fatalf("vertex lost across reopen: %+v %v %v", v, ok, err)
	}
	n := 0
	g2.ScanEdges(1, "run", func(model.Edge) bool { n++; return true })
	if n != 1 {
		t.Error("edge lost across reopen")
	}
}

// TestDifferentialMemVsDisk drives both implementations with the same
// random operation sequence and asserts identical observable state.
func TestDifferentialMemVsDisk(t *testing.T) {
	disk, err := Open(t.TempDir(), kv.Options{MemtableBytes: 2 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := NewMemStore()
	r := rand.New(rand.NewSource(42))
	labels := []string{"run", "read", "readBy", "write", "exe"}
	vlabels := []string{"User", "Execution", "File"}

	apply := func(g Graph, op int, a, b uint64, li, vi int) error {
		switch op {
		case 0, 1, 2:
			return g.PutVertex(model.Vertex{
				ID: model.VertexID(a % 50), Label: vlabels[vi],
				Props: property.Map{"p": property.Int(int64(b))},
			})
		case 3, 4, 5:
			return g.PutEdge(model.Edge{
				Src: model.VertexID(a % 50), Dst: model.VertexID(b % 50), Label: labels[li],
				Props: property.Map{"w": property.Int(int64(a ^ b))},
			})
		case 6:
			return g.DeleteEdge(model.VertexID(a%50), labels[li], model.VertexID(b%50))
		default:
			return g.DeleteVertex(model.VertexID(a % 50))
		}
	}

	for i := 0; i < 2000; i++ {
		op, a, b, li, vi := r.Intn(8), r.Uint64(), r.Uint64(), r.Intn(len(labels)), r.Intn(len(vlabels))
		if err := apply(disk, op, a, b, li, vi); err != nil {
			t.Fatalf("disk op %d: %v", i, err)
		}
		if err := apply(mem, op, a, b, li, vi); err != nil {
			t.Fatalf("mem op %d: %v", i, err)
		}
	}

	// Compare: every vertex, every label scan, every edge list.
	var diskVerts, memVerts []model.Vertex
	disk.ScanVertices(func(v model.Vertex) bool { diskVerts = append(diskVerts, v); return true })
	mem.ScanVertices(func(v model.Vertex) bool { memVerts = append(memVerts, v); return true })
	if len(diskVerts) != len(memVerts) {
		t.Fatalf("vertex count: disk %d mem %d", len(diskVerts), len(memVerts))
	}
	for i := range diskVerts {
		dv, mv := diskVerts[i], memVerts[i]
		if dv.ID != mv.ID || dv.Label != mv.Label || !dv.Props["p"].Equal(mv.Props["p"]) {
			t.Fatalf("vertex %d: disk %+v mem %+v", i, dv, mv)
		}
	}
	for _, vl := range vlabels {
		if d, m := collectByLabel(t, disk, vl), collectByLabel(t, mem, vl); !reflect.DeepEqual(d, m) {
			t.Errorf("label %s: disk %v mem %v", vl, d, m)
		}
	}
	for src := uint64(0); src < 50; src++ {
		for _, l := range labels {
			var d, m []model.Edge
			disk.ScanEdges(model.VertexID(src), l, func(e model.Edge) bool { d = append(d, e); return true })
			mem.ScanEdges(model.VertexID(src), l, func(e model.Edge) bool { m = append(m, e); return true })
			if len(d) != len(m) {
				t.Fatalf("edges %d/%s: disk %d mem %d", src, l, len(d), len(m))
			}
			for i := range d {
				if d[i].Dst != m[i].Dst || !d[i].Props["w"].Equal(m[i].Props["w"]) {
					t.Fatalf("edge %d/%s[%d]: disk %+v mem %+v", src, l, i, d[i], m[i])
				}
			}
		}
		var d, m []model.Edge
		disk.ScanAllEdges(model.VertexID(src), func(e model.Edge) bool { d = append(d, e); return true })
		mem.ScanAllEdges(model.VertexID(src), func(e model.Edge) bool { m = append(m, e); return true })
		if len(d) != len(m) {
			t.Fatalf("all-edges %d: disk %d mem %d", src, len(d), len(m))
		}
		for i := range d {
			if d[i].Label != m[i].Label || d[i].Dst != m[i].Dst {
				t.Fatalf("all-edges %d[%d]: disk %+v mem %+v", src, i, d[i], m[i])
			}
		}
	}
}

func TestMemStoreCounts(t *testing.T) {
	m := NewMemStore()
	m.PutVertex(model.Vertex{ID: 1, Label: "User"})
	m.PutVertex(model.Vertex{ID: 2, Label: "File"})
	m.PutEdge(model.Edge{Src: 1, Dst: 2, Label: "read"})
	m.PutEdge(model.Edge{Src: 1, Dst: 2, Label: "read"}) // replace, not add
	if m.NumVertices() != 2 || m.NumEdges() != 1 {
		t.Errorf("counts = %d vertices %d edges", m.NumVertices(), m.NumEdges())
	}
}
