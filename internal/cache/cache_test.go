package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

// id shortens VertexID literals in table entries.
func id(i int) model.VertexID { return model.VertexID(i) }

// cacheLen reports the number of cached keys.
func cacheLen(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func TestCheckAndInsertBasic(t *testing.T) {
	c := New(100)
	k := Key{Travel: 1, Step: 2, Vertex: 3}
	if c.CheckAndInsert(k) {
		t.Error("first insert should miss")
	}
	if !c.CheckAndInsert(k) {
		t.Error("second insert should hit")
	}
	if cacheLen(c) != 1 {
		t.Errorf("Len = %d", cacheLen(c))
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
	if cacheLen(c) != 10000 {
		t.Errorf("Len = %d", cacheLen(c))
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
	if cacheLen(c) > 10 {
		t.Errorf("Len = %d exceeds capacity", cacheLen(c))
	}
}

func TestDropTravel(t *testing.T) {
	c := New(0)
	for i := 0; i < 5; i++ {
		c.CheckAndInsert(Key{Travel: 1, Step: 1, Vertex: id(i)})
		c.CheckAndInsert(Key{Travel: 2, Step: 1, Vertex: id(i)})
	}
	c.DropTravel(1)
	if cacheLen(c) != 5 {
		t.Errorf("Len = %d, want 5", cacheLen(c))
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
			if cacheLen(c) > cap {
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

// mapCache is the cache as it was before its buckets became frontier.Sets —
// a Go map of whole keys per step — kept as the oracle the new buckets are
// held equal to. Like the cache it breaks a tie between equally large
// traversals toward the smaller id, which the original left to map order.
type mapCache struct {
	cap, size int
	travels   map[uint64]*mapTravel
}

type mapTravel struct {
	steps            map[int32]map[Key]struct{}
	minStep, maxStep int32
	size             int
}

func (c *mapCache) checkAndInsert(k Key) bool {
	ts, ok := c.travels[k.Travel]
	if !ok {
		ts = &mapTravel{steps: make(map[int32]map[Key]struct{}), minStep: k.Step, maxStep: k.Step}
		c.travels[k.Travel] = ts
	}
	if _, hit := ts.steps[k.Step][k]; hit {
		return true
	}
	if c.cap > 0 && c.size >= c.cap {
		c.evict(ts, k.Step)
	}
	bucket, ok := ts.steps[k.Step]
	if !ok {
		bucket = make(map[Key]struct{})
		ts.steps[k.Step] = bucket
	}
	bucket[k] = struct{}{}
	ts.size++
	c.size++
	ts.minStep, ts.maxStep = min(ts.minStep, k.Step), max(ts.maxStep, k.Step)
	return false
}

func (c *mapCache) evict(ts *mapTravel, incoming int32) {
	for c.size >= c.cap {
		victim := ts
		if victim.size == 0 || (victim.minStep >= incoming && len(victim.steps) <= 1) {
			victim = nil
			var victimID uint64
			for id, other := range c.travels {
				if other.size == 0 {
					continue
				}
				if victim == nil || other.size > victim.size || (other.size == victim.size && id < victimID) {
					victim, victimID = other, id
				}
			}
			if victim == nil {
				return
			}
		}
		step := victim.minStep
		for {
			if b, ok := victim.steps[step]; ok && len(b) > 0 {
				victim.size -= len(b)
				c.size -= len(b)
				delete(victim.steps, step)
				break
			}
			if step >= victim.maxStep {
				return
			}
			step++
		}
		victim.minStep = victim.maxStep
		for s, b := range victim.steps {
			if len(b) > 0 && s < victim.minStep {
				victim.minStep = s
			}
		}
	}
}

func (c *mapCache) dropTravel(travel uint64) {
	if ts, ok := c.travels[travel]; ok {
		c.size -= ts.size
		delete(c.travels, travel)
	}
}

// TestMatchesMapCache fills a small cache from several traversals at once —
// steps arriving out of order, rtn() tags, finished traversals dropped and
// their ids reused — and after every operation holds it to the map-based
// cache: the same answer, the same Len, and (so the same eviction victims)
// the same keys in every bucket.
func TestMatchesMapCache(t *testing.T) {
	for _, capacity := range []int{0, 1, 7, 48} {
		r := rand.New(rand.NewSource(int64(18 + capacity)))
		c, ref := New(capacity), &mapCache{cap: capacity, travels: map[uint64]*mapTravel{}}
		evictions := 0
		for i := 0; i < 20_000; i++ {
			if r.Intn(400) == 0 {
				tr := uint64(r.Intn(4))
				c.DropTravel(tr)
				ref.dropTravel(tr)
			}
			// Each traversal drifts up the steps at its own pace, so the
			// fallback to another traversal's bucket is taken as well.
			tr := uint64(r.Intn(4))
			k := Key{Travel: tr, Step: int32(i/(500*(int(tr)+1)))%6 + int32(r.Intn(3)), Vertex: id(r.Intn(60))}
			if r.Intn(5) == 0 {
				k.Anc, k.AncStep = id(r.Intn(3)), int32(r.Intn(2))
			}
			before := ref.size
			got, want := c.CheckAndInsert(k), ref.checkAndInsert(k)
			if got != want {
				t.Fatalf("cap %d op %d: CheckAndInsert(%+v) = %v, the map cache says %v", capacity, i, k, got, want)
			}
			if ref.size <= before && !want {
				evictions++
			}
			if cacheLen(c) != ref.size || len(c.travels) != len(ref.travels) {
				t.Fatalf("cap %d op %d: %d keys of %d traversals, the map cache holds %d of %d",
					capacity, i, cacheLen(c), len(c.travels), ref.size, len(ref.travels))
			}
			for tr, rt := range ref.travels {
				ts := c.travels[tr]
				if ts == nil || ts.size != rt.size || len(ts.steps) != len(rt.steps) {
					t.Fatalf("cap %d op %d: traversal %d differs from the map cache's", capacity, i, tr)
				}
				for step, rb := range rt.steps {
					b := ts.steps[step]
					if b == nil || b.Len() != len(rb) {
						t.Fatalf("cap %d op %d: traversal %d step %d differs from the map cache's", capacity, i, tr, step)
					}
					for rk := range rb {
						if !b.Has(frontier.Key{Vertex: rk.Vertex, Anc: rk.Anc, AncStep: rk.AncStep}) {
							t.Fatalf("cap %d op %d: %+v is in the map cache only", capacity, i, rk)
						}
					}
				}
			}
		}
		if capacity > 0 && evictions < 100 {
			t.Errorf("cap %d: only %d evicting inserts in the schedule", capacity, evictions)
		}
	}
}

// TestHitAllocatesNothing: the redundant entries the cache exists to drop
// cost no allocation.
func TestHitAllocatesNothing(t *testing.T) {
	c := New(0)
	k := Key{Travel: 1, Step: 2, Vertex: 3, Anc: 4, AncStep: 1}
	c.CheckAndInsert(k)
	if got := testing.AllocsPerRun(100, func() { hitSink = c.CheckAndInsert(k) }); got != 0 {
		t.Errorf("CheckAndInsert of a present key allocates %.0f", got)
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

// BenchmarkAdmit times Admit as a server admits a fanout's dispatches: 256
// keys a batch, each batch a new execution of one traversal at one step,
// three keys in ten repeating an earlier batch's; a traversal takes 64
// batches and is dropped. One op is one batch.
func BenchmarkAdmit(b *testing.B) {
	const n, perTravel = 256, 64
	r := rand.New(rand.NewSource(3))
	batches := make([]frontier.Batch, perTravel)
	for i := range batches {
		batches[i].Tag = frontier.Tag{AncStep: -1, Dest: -1}
		for j := 0; j < n; j++ {
			v := i*n + j
			if i > 0 && r.Intn(10) < 3 {
				v = r.Intn(i * n)
			}
			batches[i].IDs = append(batches[i].IDs, id(v))
		}
	}
	redundant := make([]bool, n)
	c := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		travel := uint64(i/perTravel) + 1
		if i%perTravel == 0 {
			c.DropTravel(travel - 1)
		}
		clear(redundant)
		c.Admit(travel, uint64(i%perTravel+1), 2, batches[i%perTravel], redundant)
	}
}

// FuzzAdmitMatchesCheckAndInsert holds batch admission to the one-key calls
// it batches. The input is a capacity byte, small so that eviction runs, then
// batches: a header of traversal, step, execution id (from a small range, so
// ids repeat) and length, then two bytes a key. A header can drop its
// traversal instead. Batches are never empty, as the engine's are not.
// Admit must report a repeated execution id of a live traversal as not fresh
// and change nothing; otherwise it must mark exactly the keys CheckAndInsert
// reports served, called one by one on a second cache, and both caches must
// then hold the same keys in the same buckets.
func FuzzAdmitMatchesCheckAndInsert(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 2, 1, 0, 2, 0, 0, 1, 1, 1, 1, 0, 2, 0})
	f.Add([]byte{3, 0x04, 1, 3, 1, 0, 2, 0, 3, 0, 0x08, 2, 2, 1, 0, 4, 0, 0x04, 1, 1, 9, 0, 0xe0, 0, 0, 0x04, 1, 1, 1, 0})
	seq := make([]byte, 0, 1+5*40)
	seq = append(seq, 9)
	for i := 0; i < 40; i++ {
		seq = append(seq, byte(i%3|i%5<<2), byte(i%11), 0, byte(i*7), byte(i%4))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		capacity := int(b[0] % 24)
		c, ref := New(capacity), New(capacity)
		type execKey struct{ travel, exec uint64 }
		started := map[execKey]bool{}
		var keys frontier.Batch
		var redundant []bool
		for b = b[1:]; len(b) >= 3; {
			travel, step, exec := uint64(b[0]&3), int32(b[0]>>2&7), uint64(b[1]%16)
			if b[0]>>5 == 7 {
				c.DropTravel(travel)
				ref.DropTravel(travel)
				for k := range started {
					if k.travel == travel {
						delete(started, k)
					}
				}
				b = b[2:]
				continue
			}
			n := 1 + int(b[2]%8)
			b = b[3:]
			keys = frontier.Batch{}
			for ; n > 0 && len(b) >= 2; n, b = n-1, b[2:] {
				keys.Append(frontier.Key{
					Vertex:  id(int(b[0] & 31)),
					Anc:     id(int(b[1] & 3)),
					AncStep: int32(b[1]>>2&3) - 1,
					Dest:    int32(b[1]>>4&3) - 1,
				})
			}
			if keys.Len() == 0 {
				break
			}
			redundant = append(redundant[:0], make([]bool, keys.Len())...)
			got, fresh := c.Admit(travel, exec, step, keys, redundant)
			ek := execKey{travel, exec}
			if fresh == started[ek] {
				t.Fatalf("execution %d of traversal %d: fresh %v, admitted before %v", exec, travel, fresh, started[ek])
			}
			started[ek] = true
			want := 0
			for i := range keys.IDs {
				k := keys.At(i)
				hit := fresh && ref.CheckAndInsert(Key{Travel: travel, Step: step, Vertex: k.Vertex, Anc: k.Anc, AncStep: k.AncStep})
				if hit {
					want++
				}
				if redundant[i] != hit {
					t.Fatalf("execution %d of traversal %d, key %d %+v: redundant %v, CheckAndInsert says %v", exec, travel, i, k, redundant[i], hit)
				}
			}
			if got != want {
				t.Fatalf("Admit counted %d redundant keys, marked %d", got, want)
			}
			sameKeys(t, c, ref)
		}
	})
}

// sameKeys fails unless c and ref hold the same keys, in the same buckets
// under the same step bounds, in the same order.
func sameKeys(t *testing.T, c, ref *Cache) {
	t.Helper()
	if c.size != ref.size || len(c.travels) != len(ref.travels) {
		t.Fatalf("%d keys of %d traversals, one by one %d of %d", c.size, len(c.travels), ref.size, len(ref.travels))
	}
	for tr, rt := range ref.travels {
		ts := c.travels[tr]
		if ts == nil || ts.size != rt.size || ts.minStep != rt.minStep || ts.maxStep != rt.maxStep || len(ts.steps) != len(rt.steps) {
			t.Fatalf("traversal %d differs from the one-by-one cache's", tr)
		}
		for step, rb := range rt.steps {
			if b := ts.steps[step]; b == nil || !reflect.DeepEqual(b.Batch(0), rb.Batch(0)) {
				t.Fatalf("traversal %d step %d holds other keys than the one-by-one cache's", tr, step)
			}
		}
	}
}
