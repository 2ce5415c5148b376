package frontier

import (
	"math/rand"
	"testing"

	"graphtrek/internal/model"
)

// TestIndexMatchesMapSeeded holds the index to the map it replaced in the
// scheduler over a seeded run of inserts, repeats, deletes (of held and of
// absent vertices) and reserves: dense ids, so probe runs collide and wrap,
// and the population rises and falls, so deletes shift runs at every load.
func TestIndexMatchesMapSeeded(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var x Index[int]
	ref := map[model.VertexID]*int{}
	vals := make([]int, 4096)
	target := 100
	for i := 0; i < 200_000; i++ {
		if i%5000 == 0 {
			target = []int{10, 100, 1500, 3000}[r.Intn(4)]
		}
		k := model.VertexID(r.Intn(len(vals)))
		switch {
		case r.Intn(1000) == 0:
			x.Reserve(r.Intn(2000))
		case len(ref) < target || r.Intn(3) == 0:
			v := &vals[k]
			had := ref[k]
			if had == nil {
				ref[k] = v
			}
			if got := x.Insert(k, v); got != had {
				t.Fatalf("op %d: Insert(%d) = %p, the map held %p", i, k, got, had)
			}
		default:
			delete(ref, k)
			x.Delete(k)
		}
		if x.n != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", i, x.n, len(ref))
		}
		if i%997 == 0 || len(ref) < 4 {
			for k, v := range ref {
				if got := x.Insert(k, nil); got != v {
					t.Fatalf("op %d: vertex %d maps to %p, want %p", i, k, got, v)
				}
			}
		}
	}
	for k := range ref {
		x.Delete(k)
	}
	for _, s := range x.slots {
		if s.v != nil {
			t.Fatalf("slot still holds vertex %d after every delete", s.k)
		}
	}
}

// TestIndexReserveThenInsertNeverGrows: Reserve(n) makes room for n inserts,
// whatever is held, and load stays at or under three quarters.
func TestIndexReserveThenInsertNeverGrows(t *testing.T) {
	vals := make([]int, 6000)
	for _, held := range []int{0, 5, 6, 700} {
		for _, n := range []int{1, 6, 7, 8, 256, 767, 769} {
			var x Index[int]
			for i := 0; i < held; i++ {
				x.Insert(model.VertexID(5000+i), &vals[5000+i])
			}
			x.Reserve(n)
			size := len(x.slots)
			for i := 0; i < n; i++ {
				x.Insert(model.VertexID(i), &vals[i])
			}
			if len(x.slots) != size || x.n > size/4*3 {
				t.Errorf("held %d, Reserve(%d): %d slots became %d holding %d", held, n, size, len(x.slots), x.n)
			}
		}
	}
}
