package query

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// randomPlan builds an arbitrary valid plan.
func randomPlan(r *rand.Rand) *Plan {
	labels := []string{"run", "read", "write", "link", "readBy"}
	var t *Travel
	switch r.Intn(3) {
	case 0:
		n := 1 + r.Intn(5)
		ids := make([]model.VertexID, n)
		for i := range ids {
			ids[i] = model.VertexID(r.Uint64() >> 1)
		}
		t = V(ids...)
	case 1:
		t = VLabel(labels[r.Intn(len(labels))])
	default:
		t = V()
	}
	addFilters := func(vertex bool) {
		for r.Intn(3) == 0 {
			key := string(rune('a' + r.Intn(8)))
			var err error
			switch r.Intn(3) {
			case 0:
				if vertex {
					t = t.Va(key, property.EQ, r.Intn(10))
				} else {
					t = t.Ea(key, property.EQ, r.Intn(10))
				}
				_ = err
			case 1:
				if vertex {
					t = t.Va(key, property.IN, 1, 2, 3)
				} else {
					t = t.Ea(key, property.IN, "a", "b")
				}
			default:
				lo := r.Intn(50)
				if vertex {
					t = t.Va(key, property.RANGE, lo, lo+r.Intn(50))
				} else {
					t = t.Ea(key, property.RANGE, lo, lo+r.Intn(50))
				}
			}
		}
	}
	addFilters(true)
	if r.Intn(3) == 0 {
		t = t.Rtn()
	}
	for h := 0; h < 1+r.Intn(6); h++ {
		t = t.E(labels[r.Intn(len(labels))])
		addFilters(false)
		addFilters(true)
		if r.Intn(4) == 0 {
			t = t.Rtn()
		}
	}
	p, err := t.Compile()
	if err != nil {
		panic(err) // construction above is always valid
	}
	return p
}

func TestPlanEncodeDecodeRandomQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlan(r)
		got, err := DecodePlan(p.Encode())
		return err == nil && reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsRandomCorruptionQuick(t *testing.T) {
	// Flipping or truncating bytes must never panic; it may either error
	// or yield a (different) valid plan, but must stay memory-safe.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		enc := randomPlan(r).Encode()
		switch r.Intn(2) {
		case 0:
			if len(enc) > 1 {
				enc = enc[:r.Intn(len(enc))]
			}
		default:
			if len(enc) > 0 {
				enc[r.Intn(len(enc))] ^= byte(1 + r.Intn(255))
			}
		}
		_, _ = DecodePlan(enc) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodePlan fuzzes the plan decoder: a plan arrives off the network
// from the client and, for a traversal started without the broadcast, on
// the first message from any peer. Decoding must never panic, and a plan
// that decodes must survive encode and decode again unchanged.
func FuzzDecodePlan(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		f.Add(randomPlan(r).Encode())
	}
	f.Add([]byte{planVersion, 1, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePlan(b)
		if err != nil {
			return
		}
		enc := p.Encode()
		again, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !bytes.Equal(again.Encode(), enc) || len(again.Steps) != len(p.Steps) {
			t.Fatalf("round trip changed the plan: %x -> %x", enc, again.Encode())
		}
	})
}

func TestReturnedNeverOutOfRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlan(r)
		marked := 0
		for i := range p.Steps {
			if p.Returned(i) {
				marked++
			}
		}
		// At least one step is always returned (implicit final fallback).
		return marked >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
