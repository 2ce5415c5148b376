package wire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"graphtrek/internal/model"
)

// TestV2DeltaEdgeCases pins the varint-delta id columns on the shapes that
// break naive delta coders: empty batches, single ids, max-uint64 values,
// and full-range jumps in both directions (which wrap the unsigned
// subtraction).
func TestV2DeltaEdgeCases(t *testing.T) {
	max := ^uint64(0)
	cases := [][]uint64{
		nil,                      // empty batch
		{0},                      // single zero id
		{max},                    // single max id
		{max, max, max},          // zero deltas at the top of the range
		{0, max, 0, max},         // alternating extremes (wrapping deltas)
		{max, 0, 1, max - 1},     // descending and ascending jumps
		{5, 4, 3, 2, 1, 0},       // strictly descending (negative deltas)
		{1 << 63, (1 << 63) - 1}, // sign-boundary neighbors
	}
	for _, ids := range cases {
		m := Message{Kind: KindResult, TravelID: 9}
		for _, v := range ids {
			m.Verts = append(m.Verts, model.VertexID(v))
			m.Ended = append(m.Ended, v)
			m.Entries = append(m.Entries, Entry{Vertex: model.VertexID(v), Anc: model.VertexID(max - v), AncStep: -1, Dest: -1})
		}
		got, err := Decode(Append(nil, &m))
		if err != nil {
			t.Fatalf("ids %v: %v", ids, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("ids %v:\n got %+v\nwant %+v", ids, got, m)
		}
	}
}

// unversionedFrame is the start of what a pre-v2 peer sends: no version
// byte, so the frame opens with its Kind, then Mode and a fixed-width
// little-endian TravelID.
var unversionedFrame = []byte{byte(KindDispatch), 0, 3, 0, 0, 0, 0, 0, 0, 0}

// TestV2RejectsV1Frame pins the versioned rejection: a frame that does not
// open with the v2 version byte must fail cleanly with an error that names
// the version mismatch, never misparse.
func TestV2RejectsV1Frame(t *testing.T) {
	if _, err := Decode(unversionedFrame); err == nil {
		t.Fatal("v2 decoder accepted an unversioned frame")
	} else if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "version") {
		t.Errorf("v1-frame rejection not actionable: %v", err)
	}
}

// TestV2RoundTripFullRangeQuick round-trips messages whose id columns span
// the whole uint64 range (randomMessage masks the top bit for legacy
// reasons; interned ids set it).
func TestV2RoundTripFullRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Message{Kind: KindDispatch, TravelID: r.Uint64(), Step: int32(r.Intn(8))}
		for i := 0; i < 1+r.Intn(64); i++ {
			m.Entries = append(m.Entries, Entry{
				Vertex:  model.VertexID(r.Uint64()),
				Anc:     model.VertexID(r.Uint64()),
				AncStep: int32(r.Intn(16) - 1),
				Dest:    int32(r.Intn(64) - 1),
			})
			m.Verts = append(m.Verts, model.VertexID(r.Uint64()))
		}
		got, err := Decode(Append(nil, &m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeV2 is the native fuzz target over the v2 trust boundary; the
// seeds cover a valid frame, a truncation, an unversioned frame and raw soup.
func FuzzDecodeV2(f *testing.F) {
	m := Message{Kind: KindDispatch, TravelID: 5,
		Entries: []Entry{{Vertex: 1, Anc: ^model.VertexID(0), AncStep: -1, Dest: 2}},
		Verts:   []model.VertexID{0, ^model.VertexID(0)}}
	valid := Append(nil, &m)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(unversionedFrame)
	f.Add([]byte{FrameV2, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		if dec, err := Decode(b); err == nil {
			// A successfully decoded message must re-encode and re-decode to
			// itself: Decode ∘ Append is idempotent on the codec's image.
			again, err := Decode(Append(nil, &dec))
			if err != nil || !reflect.DeepEqual(again, dec) {
				t.Fatalf("re-decode mismatch: %v", err)
			}
		}
	})
}

// TestV2LengthBomb mirrors TestUvarintLengthBombs for the v2 header: a tiny
// frame declaring a huge entry count must be rejected before allocation.
func TestV2LengthBomb(t *testing.T) {
	b := []byte{FrameV2, byte(KindDispatch), 0}
	for i := 0; i < 11; i++ { // header varints
		b = append(b, 0)
	}
	b = append(b, 0)                                                    // plan len
	b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10) // entries count 2^60
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Errorf("length bomb: %v", err)
	}
}
