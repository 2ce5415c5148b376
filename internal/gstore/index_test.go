package gstore

import (
	"reflect"
	"testing"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// indexedStores returns both implementations.
func indexedStores(t *testing.T) map[string]Graph {
	t.Helper()
	disk, err := Open(t.TempDir(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Graph{"disk": disk, "mem": NewMemStore()}
}

func lookup(t *testing.T, g PropertyIndex, key, val string) []model.VertexID {
	t.Helper()
	ids, err := g.LookupVertices(key, property.String(val))
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestIndexLookupAfterEnable(t *testing.T) {
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			// Pre-existing vertices must be backfilled.
			g.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"name": property.String("sam")}})
			g.PutVertex(model.Vertex{ID: 2, Label: "User", Props: property.Map{"name": property.String("john")}})
			if err := g.EnableIndex("name"); err != nil {
				t.Fatal(err)
			}
			// Post-enable writes must be indexed too.
			g.PutVertex(model.Vertex{ID: 3, Label: "User", Props: property.Map{"name": property.String("sam")}})
			if got := lookup(t, g, "name", "sam"); !reflect.DeepEqual(got, []model.VertexID{1, 3}) {
				t.Errorf("sam = %v", got)
			}
			if got := lookup(t, g, "name", "john"); !reflect.DeepEqual(got, []model.VertexID{2}) {
				t.Errorf("john = %v", got)
			}
			if got := lookup(t, g, "name", "ghost"); len(got) != 0 {
				t.Errorf("ghost = %v", got)
			}
		})
	}
}

func TestIndexTracksUpdatesAndDeletes(t *testing.T) {
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := g.EnableIndex("name"); err != nil {
				t.Fatal(err)
			}
			g.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"name": property.String("sam")}})
			// Rename: the old row must disappear.
			g.PutVertex(model.Vertex{ID: 1, Label: "User", Props: property.Map{"name": property.String("samuel")}})
			if got := lookup(t, g, "name", "sam"); len(got) != 0 {
				t.Errorf("stale index row: %v", got)
			}
			if got := lookup(t, g, "name", "samuel"); !reflect.DeepEqual(got, []model.VertexID{1}) {
				t.Errorf("samuel = %v", got)
			}
			// Dropping the property removes the row.
			g.PutVertex(model.Vertex{ID: 1, Label: "User"})
			if got := lookup(t, g, "name", "samuel"); len(got) != 0 {
				t.Errorf("row survived property removal: %v", got)
			}
			// Delete removes rows.
			g.PutVertex(model.Vertex{ID: 2, Label: "User", Props: property.Map{"name": property.String("kim")}})
			g.DeleteVertex(2)
			if got := lookup(t, g, "name", "kim"); len(got) != 0 {
				t.Errorf("row survived vertex delete: %v", got)
			}
		})
	}
}

func TestIndexUnindexedKeyErrors(t *testing.T) {
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := g.LookupVertices("nope", property.Int(1)); err == nil {
				t.Error("lookup on unindexed key should error")
			}
			if err := g.EnableIndex(""); err == nil {
				t.Error("empty key should error")
			}
			// Double enable is a no-op.
			if err := g.EnableIndex("k"); err != nil {
				t.Fatal(err)
			}
			if err := g.EnableIndex("k"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIndexDistinguishesValueKinds(t *testing.T) {
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			g.EnableIndex("v")
			g.PutVertex(model.Vertex{ID: 1, Label: "X", Props: property.Map{"v": property.Int(1)}})
			g.PutVertex(model.Vertex{ID: 2, Label: "X", Props: property.Map{"v": property.String("1")}})
			ints, err := g.LookupVertices("v", property.Int(1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ints, []model.VertexID{1}) {
				t.Errorf("Int(1) = %v", ints)
			}
			strs, _ := g.LookupVertices("v", property.String("1"))
			if !reflect.DeepEqual(strs, []model.VertexID{2}) {
				t.Errorf("String(1) = %v", strs)
			}
		})
	}
}

func TestIndexPersistsAcrossReopenWithReenable(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.EnableIndex("name")
	g.PutVertex(model.Vertex{ID: 5, Label: "User", Props: property.Map{"name": property.String("sam")}})
	g.Close()

	g2, err := Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	// The enabled-key set is in-memory configuration; re-enabling reuses
	// (and re-verifies) the persisted rows.
	if err := g2.EnableIndex("name"); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, g2, "name", "sam"); !reflect.DeepEqual(got, []model.VertexID{5}) {
		t.Errorf("after reopen = %v", got)
	}
}
