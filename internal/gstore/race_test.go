package gstore

import (
	"fmt"
	"sync"
	"testing"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// TestConcurrentPutsWithLabelChanges hammers the read-modify-write vertex
// path the Graph contract promises is concurrency-safe: writers racing on
// the same small id set, flipping labels and indexed property values. Run
// under -race (make check does); afterwards every vertex must have exactly
// one by-label row and exactly one index row, both matching its final
// version — interleaved get/delete/put sequences used to strand stale rows.
func TestConcurrentPutsWithLabelChanges(t *testing.T) {
	labels := []string{"User", "Execution", "File"}
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := g.EnableIndex("p"); err != nil {
				t.Fatal(err)
			}
			const (
				writers = 8
				rounds  = 120
				nIDs    = 5 // few ids = maximal collision pressure
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						id := model.VertexID(r % nIDs)
						err := g.PutVertex(model.Vertex{
							ID:    id,
							Label: labels[(w+r)%len(labels)],
							Props: property.Map{"p": property.Int(int64(w*rounds + r))},
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			for id := model.VertexID(0); id < nIDs; id++ {
				v, ok, err := g.GetVertex(id)
				if err != nil || !ok {
					t.Fatalf("vertex %v: ok=%v err=%v", id, ok, err)
				}
				// Exactly one by-label row, under the final label.
				for _, l := range labels {
					found := false
					g.ScanVerticesByLabel(l, func(got model.VertexID) bool {
						if got == id {
							found = true
						}
						return true
					})
					if found != (l == v.Label) {
						t.Errorf("vertex %v (label %q): by-label row under %q = %v", id, v.Label, l, found)
					}
				}
				// Exactly one index row, under the final value.
				hits := 0
				lo, hi := property.Int(0), property.Int(int64(writers*rounds))
				ids, err := g.LookupVerticesRange("p", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				for _, got := range ids {
					if got == id {
						hits++
					}
				}
				if hits != 1 {
					t.Errorf("vertex %v: %d index rows, want 1", id, hits)
				}
				want, err2 := g.LookupVertices("p", v.Props["p"])
				if err2 != nil {
					t.Fatal(err2)
				}
				if !containsID(want, id) {
					t.Errorf("vertex %v: final value %v not in index", id, v.Props["p"])
				}
			}
		})
	}
}

// TestEnableIndexRacesConcurrentPuts races the backfill scan against
// writers: every vertex written before, during or after EnableIndex must
// end with exactly one index row for its final value.
func TestEnableIndexRacesConcurrentPuts(t *testing.T) {
	for name, g := range indexedStores(t) {
		t.Run(name, func(t *testing.T) {
			const n = 200
			// Pre-existing population for the backfill to walk.
			for i := 0; i < n; i++ {
				if err := g.PutVertex(model.Vertex{ID: model.VertexID(i), Label: "User",
					Props: property.Map{"name": property.String(fmt.Sprintf("u%03d", i))}}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // overwrite every vertex while the backfill runs
				defer wg.Done()
				for i := 0; i < n; i++ {
					g.PutVertex(model.Vertex{ID: model.VertexID(i), Label: "User",
						Props: property.Map{"name": property.String(fmt.Sprintf("v%03d", i))}})
				}
			}()
			var enableErr error
			go func() {
				defer wg.Done()
				enableErr = g.EnableIndex("name")
			}()
			wg.Wait()
			if enableErr != nil {
				t.Fatal(enableErr)
			}
			for i := 0; i < n; i++ {
				v, ok, err := g.GetVertex(model.VertexID(i))
				if err != nil || !ok {
					t.Fatalf("vertex %d: ok=%v err=%v", i, ok, err)
				}
				ids, err := g.LookupVertices("name", v.Props["name"])
				if err != nil {
					t.Fatal(err)
				}
				if !containsID(ids, v.ID) {
					t.Errorf("vertex %d: final value %v missing from index", i, v.Props["name"])
				}
				// The overwritten value must not have a stranded row.
				old, err := g.LookupVertices("name", property.String(fmt.Sprintf("u%03d", i)))
				if err != nil {
					t.Fatal(err)
				}
				if v.Props["name"].Str() != fmt.Sprintf("u%03d", i) && containsID(old, v.ID) {
					t.Errorf("vertex %d: stale index row for overwritten value", i)
				}
			}
		})
	}
}

func containsID(ids []model.VertexID, id model.VertexID) bool {
	for _, got := range ids {
		if got == id {
			return true
		}
	}
	return false
}

// TestMemStoreScanDuringPutEdge: an edge scan iterates a snapshot taken under
// the read lock, so a writer that shifted edges inside the snapshot's backing
// array would show a scanner an edge twice or hide one. One writer inserts
// ascending and descending destinations (and deletes some again) while four
// scanners check every scan is strictly increasing.
func TestMemStoreScanDuringPutEdge(t *testing.T) {
	m := NewMemStore()
	const n = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(ids bool) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				last, first := model.VertexID(0), true
				check := func(dst model.VertexID) bool {
					if !first && dst <= last {
						t.Errorf("scan saw dst %d after %d", dst, last)
						return false
					}
					last, first = dst, false
					return true
				}
				if ids {
					m.ScanEdgeIDs(1, "e", check)
				} else {
					m.ScanEdges(1, "e", func(e model.Edge) bool { return check(e.Dst) })
				}
			}
		}(s%2 == 0)
	}
	for i := 0; i < n; i++ {
		// Ascending from the middle, descending below it, then an overwrite
		// and a delete inside the run.
		for _, dst := range []model.VertexID{model.VertexID(n + i), model.VertexID(n - 1 - i)} {
			if err := m.PutEdge(model.Edge{Src: 1, Label: "e", Dst: dst}); err != nil {
				t.Fatal(err)
			}
		}
		m.PutEdge(model.Edge{Src: 1, Label: "e", Dst: model.VertexID(n), Props: property.Map{"i": property.Int(int64(i))}})
		if i%8 == 7 {
			m.DeleteEdge(1, "e", model.VertexID(n+i-3))
		}
	}
	close(done)
	wg.Wait()
	want := 2*n - n/8
	got := 0
	m.ScanEdgeIDs(1, "e", func(model.VertexID) bool { got++; return true })
	if got != want {
		t.Fatalf("%d edges after the run, want %d", got, want)
	}
}
