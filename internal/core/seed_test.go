package core

import (
	"math/rand"
	"testing"

	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
)

// seedPlans are step-0 shapes covering every pushdown case: EQ, IN and
// RANGE on the indexed key (index-resolvable), an un-indexed filter key, a
// plain label seed and an explicit id seed (never index-resolved).
func seedPlans(t *testing.T, r *rand.Rand) []*query.Plan {
	return []*query.Plan{
		mustPlan(t, query.V().Va("p", property.EQ, 3).E("run").E("read")),
		mustPlan(t, query.VLabel("User").Va("p", property.IN, 1, 4, 7).E("run")),
		mustPlan(t, query.V().Va("p", property.RANGE, 2, 6).E("write").E("read")),
		mustPlan(t, query.VLabel("Execution").Va("w", property.EQ, 5).E("read")),
		mustPlan(t, query.VLabel("File").E("write")),
		mustPlan(t, query.V(model.VertexID(r.Intn(50))).E("run").E("read")),
	}
}

// enableIndex indexes key on a server's store before the server is built,
// as the facade and graphtrek-server do at boot.
func enableIndex(store gstore.Graph, key string) {
	if err := store.EnableIndex(key); err != nil {
		panic(err)
	}
}

// TestIndexAndCacheModesEquivalent is the acceptance matrix for the seed
// pushdown and the read cache: every engine mode must return identical
// results with indexes off, indexes on, the read cache on, both on, and
// both on with an eviction-thrashing tiny cache. Extends the
// TestTinyCacheStillCorrect principle — both structures are performance
// paths, never correctness dependencies. The roomy cache must also pay:
// re-running a plan it has seen reads mostly hits.
func TestIndexAndCacheModesEquivalent(t *testing.T) {
	configs := []struct {
		name    string
		indexed bool
		tweak   func(*Config)
	}{
		{"baseline", false, nil},
		{"index", true, func(cfg *Config) { enableIndex(cfg.Store, "p") }},
		{"cache", false, func(cfg *Config) {
			cfg.Store = gstore.NewCachedGraph(cfg.Store, 1<<20)
		}},
		{"index+cache", true, func(cfg *Config) {
			cfg.Store = gstore.NewCachedGraph(cfg.Store, 1<<20)
			enableIndex(cfg.Store, "p")
		}},
		{"index+tinycache", true, func(cfg *Config) {
			// 512 bytes over 16 shards: almost nothing stays resident.
			cfg.Store = gstore.NewCachedGraph(cfg.Store, 512)
			enableIndex(cfg.Store, "p")
		}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, tc.tweak)
			r := rand.New(rand.NewSource(29))
			randomGraph(t, c, r, 50, 250)
			plans := seedPlans(t, r)
			for _, plan := range plans {
				c.runAllModes(t, plan)
			}
			if tc.name == "cache" {
				c.checkWarmRerun(t, plans[0])
			}
			var indexHits int64
			for _, s := range c.servers {
				indexHits += s.Metrics().SeedIndexHits
			}
			if tc.indexed && indexHits == 0 {
				t.Error("indexed config never resolved a seed via the index")
			}
			if !tc.indexed && indexHits != 0 {
				t.Errorf("un-indexed config reported %d index hits", indexHits)
			}
		})
	}
}

// checkWarmRerun runs plan twice and holds the second run to the cache: at
// least 80 % of its vertex and adjacency reads are hits, and it returns what
// the first run returned.
func (c *cluster) checkWarmRerun(t *testing.T, plan *query.Plan) {
	t.Helper()
	opts := SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1}
	first, err := c.client.SubmitPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	var before Metrics
	for _, s := range c.servers {
		before = before.Add(s.Metrics())
	}
	second, err := c.client.SubmitPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	var after Metrics
	for _, s := range c.servers {
		after = after.Add(s.Metrics())
	}
	d := after.Sub(before)
	hits := d.VtxCacheHits + d.AdjCacheHits
	reads := hits + d.VtxCacheMisses + d.AdjCacheMisses
	if reads == 0 || float64(hits) < 0.8*float64(reads) {
		t.Errorf("warm re-run: %d cache hits of %d vertex+adjacency reads, want >= 80 %%", hits, reads)
	}
	if !sameIDs(second, first) {
		t.Errorf("warm re-run returned %v, first run %v", second, first)
	}
}

// TestIndexEnabledMidLife enables the index after a first batch of
// traversals has already run on the scan path: the same plans must keep
// returning the same results, now index-resolved. This is the operational
// shape of adding an index to a live deployment.
func TestIndexEnabledMidLife(t *testing.T) {
	c := newCluster(t, 3, nil)
	r := rand.New(rand.NewSource(31))
	randomGraph(t, c, r, 50, 250)
	plans := seedPlans(t, r)
	for _, plan := range plans {
		c.runAllModes(t, plan)
	}
	for _, s := range c.servers {
		if hits := s.Metrics().SeedIndexHits; hits != 0 {
			t.Fatalf("index hits before any index exists: %d", hits)
		}
	}
	// The engine holds the same store instance, so enabling directly on the
	// backing stores makes HasIndex flip true for in-flight servers.
	for _, st := range c.stores {
		if err := st.EnableIndex("p"); err != nil {
			t.Fatal(err)
		}
	}
	for _, plan := range plans {
		c.runAllModes(t, plan)
	}
	var indexHits int64
	for _, s := range c.servers {
		indexHits += s.Metrics().SeedIndexHits
	}
	if indexHits == 0 {
		t.Error("mid-life enabled index never resolved a seed")
	}
}

// TestSeedScannedCountsBothPaths pins the SeedScanned semantics: the
// counter totals step-0 candidates enumerated whichever way they were
// produced. On the scan path an EQ, IN or RANGE seed enumerates the whole
// label population; with the key indexed it enumerates exactly the matches,
// every one of them an index hit.
func TestSeedScannedCountsBothPaths(t *testing.T) {
	const n = 40
	c := newCluster(t, 3, nil)
	for i := 0; i < n; i++ {
		c.addVertex(t, model.Vertex{ID: model.VertexID(i), Label: "User",
			Props: property.Map{"p": property.Int(int64(i % 8))}})
	}
	// p cycles through 0..7, so each value matches n/8 = 5 users.
	seeds := []struct {
		name    string
		plan    *query.Plan
		matches int64
	}{
		{"eq", mustPlan(t, query.VLabel("User").Va("p", property.EQ, 3)), 5},
		{"in", mustPlan(t, query.VLabel("User").Va("p", property.IN, 1, 6)), 10},
		{"range", mustPlan(t, query.VLabel("User").Va("p", property.RANGE, 2, 5)), 20},
	}
	sum := func() (scanned, indexHits int64) {
		for _, s := range c.servers {
			m := s.Metrics()
			scanned += m.SeedScanned
			indexHits += m.SeedIndexHits
		}
		return scanned, indexHits
	}
	check := func(path, name string, plan *query.Plan, matches, wantScanned, wantHits int64) {
		t.Helper()
		scanned0, hits0 := sum()
		res, err := c.client.SubmitPlan(plan, SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1})
		if err != nil {
			t.Fatal(err)
		}
		scanned, hits := sum()
		if int64(len(res)) != matches {
			t.Errorf("%s %s: %d results, want %d", path, name, len(res), matches)
		}
		if scanned-scanned0 != wantScanned || hits-hits0 != wantHits {
			t.Errorf("%s %s: SeedScanned delta %d, SeedIndexHits delta %d; want %d and %d",
				path, name, scanned-scanned0, hits-hits0, wantScanned, wantHits)
		}
	}

	for _, sd := range seeds {
		check("scan", sd.name, sd.plan, sd.matches, n, 0)
	}
	for _, st := range c.stores {
		if err := st.EnableIndex("p"); err != nil {
			t.Fatal(err)
		}
	}
	for _, sd := range seeds {
		check("index", sd.name, sd.plan, sd.matches, sd.matches, sd.matches)
	}
}
