package wire

import (
	"math/rand"
	"testing"
	"testing/quick"
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
