package wire

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphtrek/internal/model"
)

// TestDecodeRandomBytesNeverPanics feeds arbitrary byte soup to the
// decoder: it may error, but must never panic or over-read — messages
// arrive off the network, so the decoder is a trust boundary.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeMutatedMessagesNeverPanic mutates valid encodings — closer to
// real corruption than pure noise, and more likely to pass early length
// checks and reach deep decode paths.
func TestDecodeMutatedMessagesNeverPanic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		enc := Append(nil, &m)
		for i := 0; i < 8; i++ {
			mut := append([]byte(nil), enc...)
			switch r.Intn(3) {
			case 0:
				if len(mut) > 0 {
					mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
				}
			case 1:
				mut = mut[:r.Intn(len(mut)+1)]
			default:
				extra := make([]byte, r.Intn(16))
				r.Read(extra)
				mut = append(mut, extra...)
			}
			_, _ = Decode(mut)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUvarintLengthBombs checks that huge declared lengths inside a tiny
// message are rejected rather than causing giant allocations.
func TestUvarintLengthBombs(t *testing.T) {
	// Version byte, kind, mode, eleven zero header varints, then a plan
	// length claiming 2^60 bytes.
	msg := make([]byte, 3+11)
	msg[0], msg[1] = FrameV2, byte(KindDispatch)
	bomb := append(msg, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10)
	if _, err := Decode(bomb); err == nil {
		t.Error("length bomb should fail to decode")
	}
}

// FuzzDecodeNames fuzzes the name service's two list codecs, which decode
// payloads off the network: a name list (DecodeNames) and an id list
// (DecodeIDs) read the same bytes. Neither may panic, and a list either
// decodes must survive encode and decode again unchanged.
func FuzzDecodeNames(f *testing.F) {
	f.Add(EncodeNames([]string{"alice", "", "/data/out-1.nc"}))
	f.Add(EncodeIDs([]model.VertexID{0, 1, 1 << 40, math.MaxUint64}))
	f.Add([]byte{2, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		if names, err := DecodeNames(b); err == nil {
			again, err := DecodeNames(EncodeNames(names))
			if err != nil || !slices.Equal(again, names) {
				t.Fatalf("names %q came back as %q (%v)", names, again, err)
			}
		}
		if ids, err := DecodeIDs(b); err == nil {
			again, err := DecodeIDs(EncodeIDs(ids))
			if err != nil || !slices.Equal(again, ids) {
				t.Fatalf("ids %v came back as %v (%v)", ids, again, err)
			}
		}
	})
}
