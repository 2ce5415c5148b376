package wire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
)

func TestRoundTripAllFields(t *testing.T) {
	m := Message{
		Kind:       KindDispatch,
		TravelID:   77,
		Step:       -3,
		Mode:       2,
		Coord:      -1,
		Peer:       5,
		Plan:       []byte{1, 2, 3},
		ExecID:     999,
		Entries:    []model.VertexID{5, 7},
		Tags:       []frontier.Tag{{Anc: 6, AncStep: 2, Dest: -1}, {Anc: 0, AncStep: -1, Dest: 3}},
		Created:    []ExecRef{{ID: 1, Server: 2, Step: 3}},
		Ended:      []uint64{4, 5},
		Verts:      []model.VertexID{10, 20},
		ReqID:      42,
		ParentExec: 888,
		Epoch:      13,
		Seq:        314,
		Base:       271,
		Part:       -2,
		Err:        "boom",
		Blob:       []byte("{\"x\":1}"),
	}
	got, err := Decode(Append(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestRoundTripEmptyMessage(t *testing.T) {
	m := Message{Kind: KindTravelDone, TravelID: 1}
	got, err := Decode(Append(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v want %+v", got, m)
	}
}

func randomMessage(r *rand.Rand) Message {
	m := Message{
		Kind:     Kind(1 + r.Intn(9)),
		TravelID: r.Uint64(),
		Step:     int32(r.Int31() - r.Int31()),
		Mode:     uint8(r.Intn(4)),
		Coord:    int32(r.Intn(64) - 1),
		Peer:     int32(r.Intn(64) - 1),
		ExecID:   r.Uint64(),
		ReqID:    r.Uint64(),
	}
	if r.Intn(2) == 0 {
		m.ParentExec = r.Uint64()
	}
	if r.Intn(2) == 0 {
		m.Epoch = r.Uint64()
		m.Seq = r.Uint64()
		m.Base = r.Uint64()
		m.Part = int32(r.Intn(64) - 1)
	}
	if r.Intn(2) == 0 {
		m.Plan = make([]byte, r.Intn(64))
		r.Read(m.Plan)
		if len(m.Plan) == 0 {
			m.Plan = nil
		}
	}
	for i := 0; i < r.Intn(5); i++ {
		addEntry(&m, frontier.Key{
			Vertex:  model.VertexID(r.Uint64() >> 1),
			Anc:     model.VertexID(r.Uint64() >> 1),
			AncStep: int32(r.Intn(16) - 1),
			Dest:    int32(r.Intn(64) - 1),
		})
	}
	for i := 0; i < r.Intn(4); i++ {
		m.Created = append(m.Created, ExecRef{ID: r.Uint64() >> 1, Server: int32(r.Intn(64)), Step: int32(r.Intn(16))})
	}
	for i := 0; i < r.Intn(4); i++ {
		m.Ended = append(m.Ended, r.Uint64()>>1)
	}
	for i := 0; i < r.Intn(6); i++ {
		m.Verts = append(m.Verts, model.VertexID(r.Uint64()>>1))
	}
	if r.Intn(3) == 0 {
		m.Err = "some error text"
	}
	return m
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		got, err := Decode(Append(nil, &m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty input should error")
	}
	m := Message{Kind: KindResult, Verts: []model.VertexID{1, 2, 3}}
	enc := Append(nil, &m)
	for _, cut := range []int{3, 10, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d should error", cut)
		}
	}
	if _, err := Decode(append(enc, 0xff)); err == nil {
		t.Error("trailing bytes should error")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindStartTravel: "StartTravel",
		KindDispatch:    "Dispatch",
		KindReturnSig:   "ReturnSig",
		KindResult:      "Result",
		KindExecEvents:  "ExecEvents",
		KindStepGo:      "StepGo",
		KindTravelDone:  "TravelDone",
		KindVisitReq:    "VisitReq",
		KindVisitResp:   "VisitResp",
		KindHeartbeat:   "Heartbeat",
		KindPeerDown:    "PeerDown",
		KindWriteReq:    "WriteReq",
		KindWriteResp:   "WriteResp",
		KindReplAppend:  "ReplAppend",
		KindReplAck:     "ReplAck",
		KindSnapshot:    "Snapshot",
		KindRouteUpdate: "RouteUpdate",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind %d String = %q want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
}
