package route

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"graphtrek/internal/model"
	"graphtrek/internal/partition"
)

// The identity table must place every vertex exactly where the static hash
// partitioner does, or enabling replication would reshuffle the graph.
func TestIdentityMatchesHashPartitioner(t *testing.T) {
	for _, servers := range []int{1, 2, 3, 5, 8} {
		hash := partition.NewHash(servers)
		v := NewView(Identity(servers, 2))
		if v.N() != hash.N() {
			t.Fatalf("servers=%d: N()=%d want %d", servers, v.N(), hash.N())
		}
		for id := model.VertexID(0); id < 10000; id++ {
			if got, want := v.Owner(id), hash.Owner(id); got != want {
				t.Fatalf("servers=%d id=%d: Owner=%d want %d", servers, id, got, want)
			}
		}
	}
}

func TestIdentityReplicaSets(t *testing.T) {
	tbl := Identity(3, 2)
	for p, a := range tbl.Parts {
		if a.Epoch != 1 {
			t.Fatalf("part %d epoch %d want 1", p, a.Epoch)
		}
		if int(a.Primary) != p {
			t.Fatalf("part %d primary %d want %d", p, a.Primary, p)
		}
		want := []int32{int32((p + 1) % 3)}
		if !reflect.DeepEqual(a.Followers, want) {
			t.Fatalf("part %d followers %v want %v", p, a.Followers, want)
		}
		if q := a.Quorum(); q != 2 {
			t.Fatalf("part %d quorum %d want 2", p, q)
		}
	}
	// Replication factor clamps to the server count.
	if got := len(Identity(2, 5).Parts[0].Followers); got != 1 {
		t.Fatalf("RF clamp: followers=%d want 1", got)
	}
	// RF 1 means no followers and quorum 1 (replication off).
	solo := Identity(3, 1).Parts[0]
	if len(solo.Followers) != 0 || solo.Quorum() != 1 {
		t.Fatalf("RF=1: followers=%v quorum=%d", solo.Followers, solo.Quorum())
	}
}

// Merge must be per-partition higher-epoch-wins, idempotent, and
// order-insensitive — the properties that make route gossip safe to
// deliver duplicated and out of order.
func TestMergeHigherEpochWins(t *testing.T) {
	base := Identity(3, 2)
	newer := base.Clone()
	newer.Parts[1] = Assignment{Epoch: 5, Primary: 2, Followers: []int32{0}}

	got := base.Clone()
	if !got.Merge(newer) {
		t.Fatal("merge of newer table reported no change")
	}
	if !reflect.DeepEqual(got.Parts[1], newer.Parts[1]) {
		t.Fatalf("part 1 = %+v want %+v", got.Parts[1], newer.Parts[1])
	}
	if !reflect.DeepEqual(got.Parts[0], base.Parts[0]) {
		t.Fatalf("part 0 changed: %+v", got.Parts[0])
	}
	// Idempotent: merging again changes nothing.
	if got.Merge(newer) {
		t.Fatal("second merge reported a change")
	}
	// Stale direction: merging the old table into the new one is a no-op.
	n2 := newer.Clone()
	if n2.Merge(base) {
		t.Fatal("merging older table reported a change")
	}
	// Mismatched partition counts are rejected outright.
	if got.Merge(&Table{Servers: 3, Parts: make([]Assignment, 7)}) {
		t.Fatal("merge across partition counts reported a change")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tbl := Identity(4, 3)
	tbl.Parts[2] = Assignment{Epoch: 9, Primary: 0, Followers: []int32{3, 1}}
	got, err := DecodeTable(tbl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, tbl)
	}
	// Truncated payloads must fail cleanly, not panic or mis-parse.
	enc := tbl.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeTable(enc[:i]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", i)
		}
	}
	if _, err := DecodeTable(append(enc, 0)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

func TestViewUpdateAndPropose(t *testing.T) {
	v := NewView(Identity(3, 2))
	before := v.Table()

	// Propose with a stale epoch is rejected.
	if v.Propose(0, Assignment{Epoch: 1, Primary: 1}) != nil {
		t.Fatal("stale propose accepted")
	}
	if v.Table() != before {
		t.Fatal("rejected propose swapped the table")
	}

	// A fresh-epoch propose swaps in a new table without mutating the old.
	next := v.Propose(0, Assignment{Epoch: 2, Primary: 1, Followers: []int32{2}})
	if next == nil {
		t.Fatal("propose rejected")
	}
	if before.Parts[0].Epoch != 1 {
		t.Fatal("propose mutated the published table")
	}
	if got := v.Assignment(0); got.Epoch != 2 || got.Primary != 1 {
		t.Fatalf("assignment after propose: %+v", got)
	}

	// Update merges and reports change; repeat delivery is a no-op.
	remote := Identity(3, 2)
	remote.Parts[1] = Assignment{Epoch: 7, Primary: 0, Followers: []int32{2}}
	if !v.Update(remote) {
		t.Fatal("update with newer assignment reported no change")
	}
	if v.Update(remote) {
		t.Fatal("repeated update reported a change")
	}
	// The merge must not have rolled back partition 0's local epoch 2.
	if got := v.Assignment(0); got.Epoch != 2 {
		t.Fatalf("update rolled back partition 0 to %+v", got)
	}
	// Owner follows the merged table.
	tbl := v.Table()
	for id := model.VertexID(0); id < 2000; id++ {
		p := tbl.Partition(id)
		if got, want := v.Owner(id), int(tbl.Parts[p].Primary); got != want {
			t.Fatalf("id %d: owner %d want %d", id, got, want)
		}
	}
}

// TestDecodeTableRejectsOutOfRangeReplicas pins the input check on the
// gossiped blob: a table naming a server outside [0, Servers) — including
// 1<<31, which wraps negative as an int32 — must be rejected before Merge
// can publish it.
func TestDecodeTableRejectsOutOfRangeReplicas(t *testing.T) {
	for _, bad := range []Assignment{
		{Epoch: 99, Primary: 3},
		{Epoch: 99, Primary: 0, Followers: []int32{1, 3}},
		{Epoch: 99, Primary: math.MinInt32}, // encodes as a huge uvarint
	} {
		tbl := Identity(3, 2)
		tbl.Parts[1] = bad
		if _, err := DecodeTable(tbl.Encode()); err == nil {
			t.Errorf("decode accepted assignment %+v for 3 servers", bad)
		}
	}
	// 1<<31 as a canonical uvarint primary: servers=3, 1 partition, epoch 1.
	blob := []byte{3, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x08, 0}
	if _, err := DecodeTable(blob); err == nil {
		t.Error("decode accepted primary 1<<31")
	}
	// A non-minimal varint (0 spelled in two bytes) is not Encode's image.
	if _, err := DecodeTable([]byte{0x83, 0x00, 0}); err == nil {
		t.Error("decode accepted a non-minimal varint")
	}
}

// FuzzDecodeTable fuzzes the route-table blob — it arrives off the network
// and a winning epoch is republished cluster-wide. Whatever decodes must be
// exactly Encode's image (re-encoding is byte-identical) and may only name
// servers the table declares.
func FuzzDecodeTable(f *testing.F) {
	tbl := Identity(4, 3)
	tbl.Parts[2] = Assignment{Epoch: 9, Primary: 0, Followers: []int32{3, 1}}
	enc := tbl.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{3, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x08, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeTable(b)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), b) {
			t.Fatalf("re-encode differs: %x -> %x", b, got.Encode())
		}
		for p, a := range got.Parts {
			for _, id := range append([]int32{a.Primary}, a.Followers...) {
				if id < 0 || int(id) >= got.Servers {
					t.Fatalf("partition %d names server %d outside [0, %d)", p, id, got.Servers)
				}
			}
		}
	})
}
