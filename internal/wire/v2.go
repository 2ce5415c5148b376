package wire

import (
	"encoding/binary"
	"fmt"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

// The v2 frame is the one codec the transports ship: a columnar batch
// format. One varint-packed header (kind, mode, traversal/step/epoch
// identity) is followed by column-major sections: all vertex ids together,
// all ancestor ids together, and so on. Id columns are delta encoded —
// consecutive values are subtracted (wrapping) and the signed difference is
// zigzag-varint coded — so the dense, mostly-ascending id runs a frontier
// batch carries collapse to one or two bytes per vertex. (The row-major v1
// frame it replaced is gone; EXPERIMENTS.md freezes the measured ratio.)
//
// Layout:
//
//	FrameV2 (0xF2)                 version byte; never a valid Kind
//	kind:1 mode:1
//	uvarint  TravelID ExecID ReqID ParentExec Epoch Seq Base
//	zigzag   Step Coord Peer Part
//	Plan     uvarint len + bytes
//	Entries  uvarint count; Vertex column (delta), Anc column (delta),
//	         AncStep column (zigzag), Dest column (zigzag)
//	Created  uvarint count; ID column (delta), Server column (zigzag),
//	         Step column (zigzag)
//	Ended    uvarint count; delta column
//	Verts    uvarint count; delta column
//	Err      uvarint len + bytes
//	Blob     uvarint len + bytes
//
// A batch whose entries share one tag (Message.Tags nil) writes the same
// bytes as one spelling the tag out per entry: the tag columns repeat it, the
// Anc column as its value and then zero deltas. Decode collapses tag columns
// that repeat one tag back into Message.Tag, so such a batch arrives as its
// vertex column alone, 8 bytes an entry.
//
// The decoder never aliases its input: Plan, Blob and Err are copied, so a
// transport may reuse its read buffer as soon as Decode returns.

// FrameV2 is the v2 version byte. The unversioned v1 frames of older builds
// started with their Kind byte, which the Kind enum keeps far below 0xF2, so
// the first byte tells Decode a frame from such a peer (or garbage) apart.
const FrameV2 = 0xF2

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDelta writes one id column: each value's wrapping difference from
// its predecessor (first value from zero), zigzag-varint coded. Wrapping
// arithmetic makes every uint64 value representable — including ^uint64(0)
// next to 0 — without widening.
func appendDelta(b []byte, prev, v uint64) ([]byte, uint64) {
	return binary.AppendUvarint(b, zigzag(int64(v-prev))), v
}

// Append serializes m as a v2 columnar frame, appending to b.
func Append(b []byte, m *Message) []byte {
	b = append(b, FrameV2, byte(m.Kind), m.Mode)
	b = binary.AppendUvarint(b, m.TravelID)
	b = binary.AppendUvarint(b, m.ExecID)
	b = binary.AppendUvarint(b, m.ReqID)
	b = binary.AppendUvarint(b, m.ParentExec)
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, m.Base)
	b = binary.AppendUvarint(b, zigzag(int64(m.Step)))
	b = binary.AppendUvarint(b, zigzag(int64(m.Coord)))
	b = binary.AppendUvarint(b, zigzag(int64(m.Peer)))
	b = binary.AppendUvarint(b, zigzag(int64(m.Part)))
	b = binary.AppendUvarint(b, uint64(len(m.Plan)))
	b = append(b, m.Plan...)

	b = binary.AppendUvarint(b, uint64(len(m.Entries)))
	prev := uint64(0)
	for _, v := range m.Entries {
		b, prev = appendDelta(b, prev, uint64(v))
	}
	b = appendTags(b, m)

	b = binary.AppendUvarint(b, uint64(len(m.Created)))
	prev = 0
	for _, c := range m.Created {
		b, prev = appendDelta(b, prev, c.ID)
	}
	for _, c := range m.Created {
		b = binary.AppendUvarint(b, zigzag(int64(c.Server)))
	}
	for _, c := range m.Created {
		b = binary.AppendUvarint(b, zigzag(int64(c.Step)))
	}

	b = binary.AppendUvarint(b, uint64(len(m.Ended)))
	prev = 0
	for _, id := range m.Ended {
		b, prev = appendDelta(b, prev, id)
	}

	b = binary.AppendUvarint(b, uint64(len(m.Verts)))
	prev = 0
	for _, v := range m.Verts {
		b, prev = appendDelta(b, prev, uint64(v))
	}

	b = binary.AppendUvarint(b, uint64(len(m.Err)))
	b = append(b, m.Err...)
	b = binary.AppendUvarint(b, uint64(len(m.Blob)))
	b = append(b, m.Blob...)
	return b
}

// appendTags writes the Anc, AncStep and Dest columns of m's entries. A tag
// the entries share is spelled out per entry, as a tag column would be.
func appendTags(b []byte, m *Message) []byte {
	keys := m.Batch()
	prev := uint64(0)
	for i := range keys.IDs {
		b, prev = appendDelta(b, prev, uint64(keys.TagAt(i).Anc))
	}
	for i := range keys.IDs {
		b = binary.AppendUvarint(b, zigzag(int64(keys.TagAt(i).AncStep)))
	}
	for i := range keys.IDs {
		b = binary.AppendUvarint(b, zigzag(int64(keys.TagAt(i).Dest)))
	}
	return b
}

// deltaColumn reads n delta-coded values into out (pre-sized by the caller).
func deltaColumn[T ~uint64](d *decoder, out []T) {
	prev := uint64(0)
	for i := range out {
		prev += uint64(unzigzag(d.uvarint()))
		out[i] = T(prev)
	}
}

// tags reads the tag columns of n entries. A first pass only checks whether
// they repeat one tag, as every batch of an rtn()-less plan does, and then
// that tag is the batch's; otherwise, from the first entry that differs, a
// second pass reads the columns again into a column of per-entry tags.
func (d *decoder) tags(n int) (frontier.Tag, []frontier.Tag) {
	start := d.b
	if anc := d.uvarint(); d.repeats(n-1, 0) {
		if ancStep := d.uvarint(); d.repeats(n-1, ancStep) {
			if dest := d.uvarint(); d.repeats(n-1, dest) {
				return frontier.Tag{Anc: model.VertexID(unzigzag(anc)), AncStep: int32(unzigzag(ancStep)), Dest: int32(unzigzag(dest))}, nil
			}
		}
	}
	d.b = start
	tags := make([]frontier.Tag, n)
	prev := uint64(0)
	for i := range tags {
		prev += uint64(unzigzag(d.uvarint()))
		tags[i].Anc = model.VertexID(prev)
	}
	for i := range tags {
		tags[i].AncStep = int32(unzigzag(d.uvarint()))
	}
	for i := range tags {
		tags[i].Dest = int32(unzigzag(d.uvarint()))
	}
	return frontier.Tag{}, tags
}

// repeats reads up to n uvarints and reports whether all n are v; it stops
// at the first that is not.
func (d *decoder) repeats(n int, v uint64) bool {
	for range n {
		if d.uvarint() != v {
			return false
		}
	}
	return true
}

// Decode parses a v2 columnar frame. A frame without the v2 version byte —
// a v1 frame, or garbage — is rejected with an error naming the versions so
// a mixed-version cluster fails loudly instead of misparsing. The entire
// input must be consumed.
func Decode(b []byte) (Message, error) {
	if len(b) < 3 {
		return Message{}, fmt.Errorf("wire: message too short")
	}
	if b[0] != FrameV2 {
		return Message{}, fmt.Errorf(
			"wire: frame version byte 0x%02x is not v2 (0x%02x); a v1 (unversioned) peer must be upgraded before it can talk to this node", b[0], FrameV2)
	}
	var m Message
	m.Kind = Kind(b[1])
	m.Mode = b[2]
	d := &decoder{b: b[3:]}
	m.TravelID = d.uvarint()
	m.ExecID = d.uvarint()
	m.ReqID = d.uvarint()
	m.ParentExec = d.uvarint()
	m.Epoch = d.uvarint()
	m.Seq = d.uvarint()
	m.Base = d.uvarint()
	m.Step = int32(unzigzag(d.uvarint()))
	m.Coord = int32(unzigzag(d.uvarint()))
	m.Peer = int32(unzigzag(d.uvarint()))
	m.Part = int32(unzigzag(d.uvarint()))
	if n := d.uvarint(); n > 0 && d.err == nil {
		m.Plan = append([]byte(nil), d.bytes(n)...)
	}
	// Column element minimums bound allocation before make(): an entry
	// spans four columns of >= 1 byte each, a created ref three, ended and
	// vert ids one.
	if n := d.count(d.uvarint(), 4); n > 0 && d.err == nil {
		// Straight into the columns the executor will keep: no scratch.
		m.Entries = make([]model.VertexID, n)
		deltaColumn(d, m.Entries)
		m.Tag, m.Tags = d.tags(n)
	}
	if n := d.count(d.uvarint(), 3); n > 0 && d.err == nil {
		m.Created = make([]ExecRef, n)
		prev := uint64(0)
		for i := range m.Created {
			prev += uint64(unzigzag(d.uvarint()))
			m.Created[i].ID = prev
		}
		for i := range m.Created {
			m.Created[i].Server = int32(unzigzag(d.uvarint()))
		}
		for i := range m.Created {
			m.Created[i].Step = int32(unzigzag(d.uvarint()))
		}
	}
	if n := d.count(d.uvarint(), 1); n > 0 && d.err == nil {
		m.Ended = make([]uint64, n)
		deltaColumn(d, m.Ended)
	}
	if n := d.count(d.uvarint(), 1); n > 0 && d.err == nil {
		m.Verts = make([]model.VertexID, n)
		deltaColumn(d, m.Verts)
	}
	if n := d.uvarint(); d.err == nil {
		m.Err = string(d.bytes(n))
	}
	if n := d.uvarint(); n > 0 && d.err == nil {
		m.Blob = append([]byte(nil), d.bytes(n)...)
	}
	if d.err != nil {
		return Message{}, d.err
	}
	if len(d.b) != 0 {
		return Message{}, fmt.Errorf("wire: %d trailing bytes", len(d.b))
	}
	return m, nil
}
