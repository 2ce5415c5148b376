package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphtrek/internal/model"
)

// id shortens VertexID literals in table entries.
func id(i int) model.VertexID { return model.VertexID(i) }

func TestCheckAndInsertBasic(t *testing.T) {
	c := New(100)
	k := Key{Travel: 1, Step: 2, Vertex: 3}
	if c.CheckAndInsert(k) {
		t.Error("first insert should miss")
	}
	if !c.CheckAndInsert(k) {
		t.Error("second insert should hit")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestDistinctKeysDoNotCollide(t *testing.T) {
	c := New(0)
	base := Key{Travel: 1, Step: 1, Vertex: 7}
	variants := []Key{
		{Travel: 2, Step: 1, Vertex: 7},
		{Travel: 1, Step: 2, Vertex: 7},
		{Travel: 1, Step: 1, Vertex: 8},
		{Travel: 1, Step: 1, Vertex: 7, Anc: 9},
		{Travel: 1, Step: 1, Vertex: 7, AncStep: 3},
	}
	if c.CheckAndInsert(base) {
		t.Fatal("base should miss")
	}
	for i, v := range variants {
		if c.CheckAndInsert(v) {
			t.Errorf("variant %d should not collide with base", i)
		}
	}
	if !c.CheckAndInsert(base) {
		t.Error("base should still be cached")
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New(0)
	for i := 0; i < 10000; i++ {
		if c.CheckAndInsert(Key{Travel: 1, Step: int32(i % 8), Vertex: id(i)}) {
			t.Fatalf("unexpected hit at %d", i)
		}
	}
	if c.Len() != 10000 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestSmallestStepEvictedFirst(t *testing.T) {
	c := New(10)
	// Fill with 5 entries at step 0 and 5 at step 5.
	for i := 0; i < 5; i++ {
		c.CheckAndInsert(Key{Travel: 1, Step: 0, Vertex: id(i)})
	}
	for i := 0; i < 5; i++ {
		c.CheckAndInsert(Key{Travel: 1, Step: 5, Vertex: id(i)})
	}
	// Inserting at step 6 must evict the step-0 bucket, not step 5.
	if c.CheckAndInsert(Key{Travel: 1, Step: 6, Vertex: id(99)}) {
		t.Fatal("fresh key reported as hit")
	}
	for i := 0; i < 5; i++ {
		if c.CheckAndInsert(Key{Travel: 1, Step: 5, Vertex: id(i)}) == false {
			t.Errorf("step-5 entry %d was evicted; smallest step should go first", i)
		}
	}
}

func TestEvictionAcrossTravels(t *testing.T) {
	c := New(10)
	for i := 0; i < 10; i++ {
		c.CheckAndInsert(Key{Travel: 1, Step: 3, Vertex: id(i)})
	}
	// Travel 2 inserts at step 0; travel 2 has nothing older, so the big
	// travel 1 loses entries instead, and the insert succeeds.
	if c.CheckAndInsert(Key{Travel: 2, Step: 0, Vertex: id(0)}) {
		t.Fatal("fresh key reported as hit")
	}
	if !c.CheckAndInsert(Key{Travel: 2, Step: 0, Vertex: id(0)}) {
		t.Error("travel 2 entry should be cached")
	}
	if c.Len() > 10 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

func TestDropTravel(t *testing.T) {
	c := New(0)
	for i := 0; i < 5; i++ {
		c.CheckAndInsert(Key{Travel: 1, Step: 1, Vertex: id(i)})
		c.CheckAndInsert(Key{Travel: 2, Step: 1, Vertex: id(i)})
	}
	c.DropTravel(1)
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5", c.Len())
	}
	if c.CheckAndInsert(Key{Travel: 1, Step: 1, Vertex: id(0)}) {
		t.Error("dropped travel entries should be gone")
	}
	if !c.CheckAndInsert(Key{Travel: 2, Step: 1, Vertex: id(0)}) {
		t.Error("other travel entries should remain")
	}
	c.DropTravel(99) // no-op
}

func TestCapacityIsRespectedQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := 8 + r.Intn(64)
		c := New(cap)
		for i := 0; i < 1000; i++ {
			c.CheckAndInsert(Key{
				Travel: uint64(r.Intn(3)),
				Step:   int32(r.Intn(8)),
				Vertex: id(r.Intn(200)),
			})
			if c.Len() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNeverFalsePositiveQuick(t *testing.T) {
	// A bounded cache may forget (false negative) but must never claim an
	// unseen key was served (false positive) — that would corrupt results.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(16)
		seen := map[Key]bool{}
		for i := 0; i < 500; i++ {
			k := Key{Travel: uint64(r.Intn(2)), Step: int32(r.Intn(6)), Vertex: id(r.Intn(100))}
			hit := c.CheckAndInsert(k)
			if hit && !seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

var hitSink bool

// BenchmarkCheckAndInsert is the shape of the repository benchmark's cache
// probe: one traversal's keys over four steps, three in ten repeating an
// earlier one, into a cache that never evicts. One op is one key; the cache
// is rebuilt every 32 Ki keys, as a traversal's would be.
func BenchmarkCheckAndInsert(b *testing.B) {
	const n = 1 << 15
	r := rand.New(rand.NewSource(2))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Travel: 1, Step: int32(r.Intn(4)), Vertex: id(r.Intn(n))}
		if i > 0 && r.Intn(10) < 3 {
			keys[i] = keys[r.Intn(i)]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var c *Cache
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			c = New(1 << 20)
		}
		hitSink = c.CheckAndInsert(keys[i%n])
	}
}
