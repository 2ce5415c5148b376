package core

import (
	"reflect"
	"testing"
	"time"

	"graphtrek/internal/model"
	"graphtrek/internal/query"
)

func TestSortedUnique(t *testing.T) {
	cases := []struct {
		in, want []model.VertexID
	}{
		{nil, nil},
		{[]model.VertexID{3, 1, 2}, []model.VertexID{1, 2, 3}},
		{[]model.VertexID{5, 5, 5}, []model.VertexID{5}},
		{[]model.VertexID{2, 1, 2, 1}, []model.VertexID{1, 2}},
		{[]model.VertexID{7}, []model.VertexID{7}},
	}
	for _, c := range cases {
		got := sortedUnique(append([]model.VertexID(nil), c.in...))
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("sortedUnique(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClientUnboundErrors(t *testing.T) {
	c := NewClient(nil)
	if _, err := c.SubmitPlan(mustPlanT(t), SubmitOptions{}); err == nil {
		t.Error("unbound client SubmitPlan should error")
	}
	if _, err := c.SubmitPlanAsync(mustPlanT(t), SubmitOptions{}); err == nil {
		t.Error("unbound client SubmitPlanAsync should error")
	}
}

func mustPlanT(t *testing.T) *query.Plan {
	t.Helper()
	p, err := query.V(1).E("x").Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClientSideModeUnboundErrors(t *testing.T) {
	c := NewClient(nil)
	if _, err := c.SubmitPlan(mustPlanT(t), SubmitOptions{Mode: ModeClientSide}); err == nil {
		t.Error("unbound client-side submit should error")
	}
}

func TestSubmitDistributesCoordinators(t *testing.T) {
	// With Coordinator: -1, an id-seeded traversal is coordinated by the
	// owner of its first source, where it starts; successive scan-seeded
	// traversals should not all pick the same backend (the paper's
	// "selected backend server" rotates).
	c := newCluster(t, 4, nil)
	loadAuditGraph(t, c)
	submit := func(q *query.Travel) int {
		t.Helper()
		h, err := c.client.SubmitPlanAsync(mustPlan(t, q), SubmitOptions{Mode: ModeGraphTrek, Coordinator: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return h.Coordinator()
	}
	for _, src := range []model.VertexID{1, 2, 10, 11, 12} {
		if got, owner := submit(query.V(src, 1).E("run")), c.part.Owner(src); got != owner {
			t.Errorf("traversal from vertex %d coordinated by server %d, not its owner %d", src, got, owner)
		}
	}
	coords := map[int]bool{}
	for i := 0; i < 12; i++ {
		coords[submit(query.VLabel("User").E("run"))] = true
	}
	if len(coords) < 2 {
		t.Errorf("12 scan-seeded traversals used only coordinators %v", coords)
	}
}

func TestTravelIDsUniquePerClient(t *testing.T) {
	c := newCluster(t, 2, nil)
	loadAuditGraph(t, c)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		h, err := c.client.SubmitPlanAsync(mustPlan(t, query.V(1).E("run")),
			SubmitOptions{Mode: ModeSync, Coordinator: 0})
		if err != nil {
			t.Fatal(err)
		}
		if seen[h.TravelID()] {
			t.Fatalf("duplicate travel id %d", h.TravelID())
		}
		seen[h.TravelID()] = true
		if _, err := h.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
