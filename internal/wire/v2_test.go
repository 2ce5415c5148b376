package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"graphtrek/internal/frontier"
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
			addEntry(&m, frontier.Key{Vertex: model.VertexID(v), Anc: model.VertexID(max - v), AncStep: -1, Dest: -1})
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
			addEntry(&m, frontier.Key{
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
// seeds cover valid frames (a batch under one tag, one under mixed tags, and
// one-entry batches of each), a truncation, an unversioned frame and raw soup.
// Each valid seed must decode and encode back to the same bytes.
func FuzzDecodeV2(f *testing.F) {
	one := frontier.Tag{Anc: 9, AncStep: 1, Dest: 2}
	var frames [][]byte
	for _, keys := range [][]frontier.Key{
		{{Vertex: 1, Anc: ^model.VertexID(0), AncStep: -1, Dest: 2}},
		{one.Key(3), one.Key(1), one.Key(200), one.Key(^model.VertexID(0))},
		{one.Key(3), {Vertex: 4, AncStep: -1, Dest: -1}, one.Key(5), {Vertex: 5, Anc: 9, AncStep: 1, Dest: 3}},
	} {
		m := Message{Kind: KindDispatch, TravelID: 5, Verts: []model.VertexID{0, ^model.VertexID(0)}}
		for _, k := range keys {
			addEntry(&m, k)
		}
		frames = append(frames, Append(nil, &m))
	}
	for _, b := range frames {
		dec, err := Decode(b)
		if err != nil || !bytes.Equal(Append(nil, &dec), b) {
			f.Fatalf("a seed frame does not decode and encode back to its bytes (%v)", err)
		}
		f.Add(b)
	}
	f.Add(frames[0][:len(frames[0])/2])
	f.Add(unversionedFrame)
	f.Add([]byte{FrameV2, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		if dec, err := Decode(b); err == nil {
			// A successfully decoded message must re-encode and re-decode to
			// itself: Decode ∘ Append is idempotent on the codec's image, one
			// tag kept once or per entry alike.
			enc := Append(nil, &dec)
			again, err := Decode(enc)
			if err != nil || !reflect.DeepEqual(again, dec) || !bytes.Equal(Append(nil, &again), enc) {
				t.Fatalf("re-decode mismatch: %v", err)
			}
			if dec.Tags != nil && len(dec.Tags) != len(dec.Entries) {
				t.Fatalf("%d entries decoded with %d tags", len(dec.Entries), len(dec.Tags))
			}
		}
	})
}

// addEntry appends k to m's batch.
func addEntry(m *Message, k frontier.Key) {
	b := m.Batch()
	b.Append(k)
	m.SetBatch(b)
}

// TestOneTagBatchIsItsIDColumn: a batch whose entries share one tag encodes
// to the same bytes whether the tag is kept once or spelled out per entry,
// and decodes to its id column and the tag, with no tag column and no
// allocation but the ids'. A batch of mixed tags keeps one tag per entry.
func TestOneTagBatchIsItsIDColumn(t *testing.T) {
	one := frontier.Tag{Anc: 1 << 40, AncStep: 2, Dest: -1}
	m := Message{Kind: KindDispatch, TravelID: 3, Tag: one}
	spelled := m
	for v := range 1000 {
		m.Entries = append(m.Entries, model.VertexID(3*v))
		spelled.Tags = append(spelled.Tags, one)
	}
	spelled.Entries = m.Entries
	frame := Append(nil, &m)
	if !bytes.Equal(Append(nil, &spelled), frame) {
		t.Fatal("a one-tag batch encodes differently from its tags spelled out per entry")
	}
	for _, sent := range []Message{m, spelled} {
		got, err := Decode(frame)
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("decoded %+v (%v), want the ids and the tag once", got.Batch(), err)
		}
		if got := sent.Batch(); got.TagAt(999) != one || got.At(5) != one.Key(15) {
			t.Fatalf("the batch as sent reads %+v at 999", got.TagAt(999))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { sink, _ = Decode(frame) }); allocs != 1 {
		t.Errorf("decoding a one-tag batch allocates %.0f times, want 1 (the id column)", allocs)
	}

	mixed := spelled
	mixed.Tag, mixed.Tags = frontier.Tag{}, slices.Clone(spelled.Tags)
	mixed.Tags[500].Dest = 4
	got, err := Decode(Append(nil, &mixed))
	if err != nil || !reflect.DeepEqual(got, mixed) {
		t.Fatalf("a mixed-tag batch decoded to %+v (%v)", got.Batch(), err)
	}
}

var sink Message

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

// BenchmarkBatchCodec times Append and Decode of a 256-entry dispatch frame
// per entry, its ids dense and ascending as an outbox's are, under one tag
// (every batch of a plan without rtn()) and under a tag per entry.
func BenchmarkBatchCodec(b *testing.B) {
	const n = 256
	one := Message{Kind: KindDispatch, TravelID: 9, Tag: frontier.Tag{AncStep: -1, Dest: -1}}
	for i := range n {
		one.Entries = append(one.Entries, model.VertexID(1000+3*i))
	}
	mixed := one
	mixed.Tag, mixed.Tags = frontier.Tag{}, make([]frontier.Tag, n)
	for i := range mixed.Tags {
		mixed.Tags[i] = frontier.Tag{Anc: model.VertexID(i % 5), AncStep: 1, Dest: int32(i % 3)}
	}
	for _, tc := range []struct {
		name string
		m    Message
	}{{"one-tag", one}, {"mixed", mixed}} {
		frame := Append(nil, &tc.m)
		b.Run(tc.name+"/append", func(b *testing.B) {
			buf := make([]byte, 0, len(frame))
			for range b.N {
				buf = Append(buf[:0], &tc.m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				sink, _ = Decode(frame)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}
