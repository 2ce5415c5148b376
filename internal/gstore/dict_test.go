package gstore

import (
	"fmt"
	"reflect"
	"testing"

	"graphtrek/internal/kv"
	"graphtrek/internal/model"
)

// dictStores builds one store of each implementation for a subtest sweep.
func dictStores(t *testing.T) map[string]Graph {
	t.Helper()
	disk, err := Open(t.TempDir(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Graph{
		"mem":    NewMemStore(),
		"disk":   disk,
		"cached": NewCachedGraph(NewMemStore(), 1<<20),
	}
}

func TestInternAllocatesDenseIDsPerPartition(t *testing.T) {
	for name, g := range dictStores(t) {
		t.Run(name, func(t *testing.T) {
			// Dense per-partition counters, partition embedded in the id.
			for part := 0; part < 3; part++ {
				for ctr := uint64(0); ctr < 4; ctr++ {
					id, err := g.Intern(fmt.Sprintf("p%d-n%d", part, ctr), part)
					if err != nil {
						t.Fatal(err)
					}
					if want := model.InternedID(part, ctr); id != want {
						t.Fatalf("intern(p%d #%d) = %x, want %x", part, ctr, uint64(id), uint64(want))
					}
					if !id.Interned() || id.InternedPartition() != part || id.InternedCounter() != ctr {
						t.Fatalf("id %x decodes to part=%d ctr=%d", uint64(id), id.InternedPartition(), id.InternedCounter())
					}
				}
			}
			// Re-interning an existing name returns its id, no allocation.
			id, err := g.Intern("p1-n2", 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := model.InternedID(1, 2); id != want {
				t.Fatalf("re-intern = %x, want %x", uint64(id), uint64(want))
			}
			// Both lookup directions.
			if got, ok, err := g.LookupID("p2-n3"); err != nil || !ok || got != model.InternedID(2, 3) {
				t.Fatalf("LookupID = %x/%v/%v", uint64(got), ok, err)
			}
			if name, ok, err := g.LookupName(model.InternedID(0, 1)); err != nil || !ok || name != "p0-n1" {
				t.Fatalf("LookupName = %q/%v/%v", name, ok, err)
			}
			if _, ok, err := g.LookupID("ghost"); err != nil || ok {
				t.Fatalf("ghost LookupID ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestApplyInternIdempotentAndAdvancesAllocator(t *testing.T) {
	for name, g := range dictStores(t) {
		t.Run(name, func(t *testing.T) {
			// A replica replays a primary-allocated pair (twice — replication
			// is at-least-once).
			id := model.InternedID(4, 7)
			for i := 0; i < 2; i++ {
				if err := g.ApplyIntern("replayed", id); err != nil {
					t.Fatal(err)
				}
			}
			if got, ok, _ := g.LookupID("replayed"); !ok || got != id {
				t.Fatalf("after replay: %x/%v", uint64(got), ok)
			}
			// Promotion: the replica now allocates for partition 4 and must
			// continue past the replayed counter, not collide with it.
			next, err := g.Intern("fresh", 4)
			if err != nil {
				t.Fatal(err)
			}
			if want := model.InternedID(4, 8); next != want {
				t.Fatalf("post-replay allocation = %x, want %x", uint64(next), uint64(want))
			}
			if err := g.ApplyIntern("bogus", model.VertexID(123)); err == nil {
				t.Fatal("ApplyIntern accepted a non-interned id")
			}
		})
	}
}

func TestScanInternedAndSnapshotCarriesDictionary(t *testing.T) {
	for name, g := range dictStores(t) {
		t.Run(name, func(t *testing.T) {
			want := map[string]model.VertexID{}
			for i := 0; i < 5; i++ {
				n := fmt.Sprintf("n%d", i)
				id, err := g.Intern(n, i%2)
				if err != nil {
					t.Fatal(err)
				}
				want[n] = id
			}
			got := map[string]model.VertexID{}
			if err := g.ScanInterned(func(n string, id model.VertexID) bool {
				got[n] = id
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ScanInterned = %v, want %v", got, want)
			}

			// A handoff snapshot keeping partition 0 ships exactly partition
			// 0's intern pairs, and replaying them onto an empty store
			// reconstructs the mapping.
			fresh := NewMemStore()
			err := SnapshotMutations(g, func(id model.VertexID) bool {
				return id.Interned() && id.InternedPartition() == 0
			}, 2, func(ms []Mutation) error {
				enc := EncodeBatch(ms)
				dec, err := DecodeBatch(enc)
				if err != nil {
					return err
				}
				for _, m := range dec {
					if err := m.Apply(fresh); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for n, id := range want {
				gotID, ok, _ := fresh.LookupID(n)
				if id.InternedPartition() == 0 {
					if !ok || gotID != id {
						t.Errorf("after handoff: LookupID(%q) = %x/%v, want %x", n, uint64(gotID), ok, uint64(id))
					}
				} else if ok {
					t.Errorf("after handoff: foreign-partition name %q present", n)
				}
			}
		})
	}
}

func TestInternMutationRoundTrip(t *testing.T) {
	ms := []Mutation{
		{Op: OpIntern, ID: model.InternedID(3, 9), Name: "users/sam"},
		{Op: OpPutVertex, Vertex: model.Vertex{ID: model.InternedID(3, 9), Label: "User"}},
	}
	dec, err := DecodeBatch(EncodeBatch(ms))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, ms) {
		t.Fatalf("round trip = %+v, want %+v", dec, ms)
	}
	if got := ms[0].RoutingID(); got != model.InternedID(3, 9) {
		t.Fatalf("RoutingID = %x", uint64(got))
	}
}
