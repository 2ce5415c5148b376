package partition

import (
	"testing"
	"testing/quick"

	"graphtrek/internal/model"
)

func TestHashOwnerInRangeQuick(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 32} {
		p := NewHash(n)
		if p.N() != n {
			t.Fatalf("N() = %d, want %d", p.N(), n)
		}
		f := func(id uint64) bool {
			o := p.Owner(model.VertexID(id))
			return o >= 0 && o < n
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	p := NewHash(8)
	for id := uint64(0); id < 100; id++ {
		if p.Owner(model.VertexID(id)) != p.Owner(model.VertexID(id)) {
			t.Fatal("Owner not deterministic")
		}
	}
}

func TestHashBalance(t *testing.T) {
	// Sequential ids must spread near-uniformly: with 64k ids over 32
	// servers, each server expects 2048; allow ±25%.
	p := NewHash(32)
	counts := make([]int, 32)
	const n = 1 << 16
	for id := 0; id < n; id++ {
		counts[p.Owner(model.VertexID(id))]++
	}
	want := n / 32
	for s, c := range counts {
		if c < want*3/4 || c > want*5/4 {
			t.Errorf("server %d has %d vertices, want ~%d", s, c, want)
		}
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"hash zero": func() { NewHash(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBalancedSpreadsHubs(t *testing.T) {
	// A power-law census: a few hubs, many leaves.
	degrees := map[model.VertexID]int{}
	for i := 0; i < 4; i++ {
		degrees[model.VertexID(i)] = 1000 // hubs
	}
	for i := 4; i < 104; i++ {
		degrees[model.VertexID(i)] = 2
	}
	b := NewBalanced(4, degrees)
	// Each server must get exactly one hub.
	hubOwners := map[int]int{}
	for i := 0; i < 4; i++ {
		hubOwners[b.Owner(model.VertexID(i))]++
	}
	for s := 0; s < 4; s++ {
		if hubOwners[s] != 1 {
			t.Errorf("server %d owns %d hubs, want 1 (owners %v)", s, hubOwners[s], hubOwners)
		}
	}
	// Placed weight (1 + out-degree per vertex) must be near-equal.
	loads := make([]int64, 4)
	for id, deg := range degrees {
		loads[b.Owner(id)] += int64(1 + deg)
	}
	min, max := loads[0], loads[0]
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 100 {
		t.Errorf("load spread %d too wide: %v", max-min, loads)
	}
}

func TestBalancedFallbackToHash(t *testing.T) {
	b := NewBalanced(3, map[model.VertexID]int{1: 5})
	h := NewHash(3)
	// A vertex outside the census hashes like the plain partitioner.
	if b.Owner(999) != h.Owner(999) {
		t.Error("fallback owner should match hash partitioner")
	}
	if b.N() != 3 {
		t.Errorf("N = %d", b.N())
	}
}

func TestBalancedDeterministic(t *testing.T) {
	degrees := map[model.VertexID]int{}
	for i := 0; i < 50; i++ {
		degrees[model.VertexID(i)] = i % 7
	}
	b1 := NewBalanced(4, degrees)
	b2 := NewBalanced(4, degrees)
	for i := 0; i < 50; i++ {
		if b1.Owner(model.VertexID(i)) != b2.Owner(model.VertexID(i)) {
			t.Fatalf("nondeterministic placement for %d", i)
		}
	}
}

func TestBalancedPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBalanced(0, nil)
}

func TestHashRoutesInternedIDsByEmbeddedPartition(t *testing.T) {
	h := NewHash(5)
	for part := 0; part < 5; part++ {
		for ctr := uint64(0); ctr < 100; ctr += 13 {
			id := model.InternedID(part, ctr)
			if got := h.Owner(id); got != part {
				t.Fatalf("Owner(interned part=%d ctr=%d) = %d", part, ctr, got)
			}
		}
	}
	// The intern-time placement contract: a name's partition is its hash
	// routed like a plain vertex id, so interned data lands where the raw
	// hash would have.
	name := "users/sam"
	part := h.Owner(model.VertexID(model.HashName(name)))
	if got := h.Owner(model.InternedID(part, 0)); got != part {
		t.Fatalf("name partition %d routes to %d", part, got)
	}
}
