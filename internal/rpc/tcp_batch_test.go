package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"graphtrek/internal/frontier"
	"graphtrek/internal/model"
	"graphtrek/internal/wire"
)

// blobMsg is message i of a test stream: TravelID i and a Blob of size
// bytes that depend on i.
func blobMsg(i, size int) wire.Message {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*7 + j)
	}
	return wire.Message{Kind: wire.KindResult, TravelID: uint64(i), Blob: b}
}

// TestTCPBatchesQueuedFrames sends frames back to back, so the writer finds
// them queued and the reader finds them buffered: every frame must arrive
// whole and in order, with fewer writes than frames sent and fewer reads
// than frames read. One frame is larger than the read buffer and than
// maxPooledFrame, so it goes past the buffer into a buffer of its own.
func TestTCPBatchesQueuedFrames(t *testing.T) {
	const n = 2000
	size := func(i int) int {
		if i == n/2 {
			return maxPooledFrame + 1
		}
		return i * 37 % 700
	}
	var c collector
	t0, t1 := newTCPPair(t, func(int, wire.Message) {}, c.handle)
	for i := 0; i < n; i++ {
		if err := t0.Send(1, blobMsg(i, size(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.len() == n })
	c.mu.Lock()
	for i, m := range c.msgs {
		if want := blobMsg(i, size(i)); m.TravelID != want.TravelID || !bytes.Equal(m.Blob, want.Blob) {
			t.Fatalf("message %d: id %d, %d blob bytes; want id %d, %d bytes", i, m.TravelID, len(m.Blob), i, len(want.Blob))
		}
	}
	c.mu.Unlock()
	s0, s1 := t0.Stats(), t1.Stats()
	if s0.FramesSent != n || s1.FramesRead != n {
		t.Errorf("FramesSent %d, FramesRead %d; want %d each", s0.FramesSent, s1.FramesRead, n)
	}
	if s0.Writes >= s0.FramesSent {
		t.Errorf("Writes %d for %d frames: queued frames were not batched", s0.Writes, s0.FramesSent)
	}
	if s1.Reads >= s1.FramesRead {
		t.Errorf("Reads %d for %d frames: the reader is not buffered", s1.Reads, s1.FramesRead)
	}
}

// cutConn is a connection that takes limit bytes and then fails every
// write. Only Write, Read and Close are called on it; Read blocks until
// Close, as on an outbound connection whose peer stays silent.
type cutConn struct {
	net.Conn
	limit  int
	got    []byte
	once   sync.Once
	closed chan struct{}
}

func newCutConn(limit int) *cutConn { return &cutConn{limit: limit, closed: make(chan struct{})} }

func (c *cutConn) Write(b []byte) (int, error) {
	n := min(len(b), max(c.limit-len(c.got), 0))
	c.got = append(c.got, b[:n]...)
	if n < len(b) {
		return n, errors.New("connection cut")
	}
	return n, nil
}

func (c *cutConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *cutConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// testFrames are four frames of different lengths and contents.
var testFrames = [][]byte{[]byte("abc"), []byte("defgh"), []byte("ij"), []byte("klmn")}

// whole returns how many of frames fit whole in k bytes.
func whole(frames [][]byte, k int) int {
	n := 0
	for _, f := range frames {
		if k -= len(f); k < 0 {
			break
		}
		n++
	}
	return n
}

// TestWriteFramesReportsWholeFrames cuts a connection after k bytes, for
// every k on and inside the frame boundaries: writeFrames must report as
// sent exactly the frames the connection took whole.
func TestWriteFramesReportsWholeFrames(t *testing.T) {
	all := bytes.Join(testFrames, nil)
	for k := 0; k <= len(all); k++ {
		conn := newCutConn(k)
		bufs := net.Buffers(append([][]byte(nil), testFrames...))
		sent, err := writeFrames(conn, &bufs)
		if want := whole(testFrames, k); sent != want {
			t.Errorf("cut at %d: sent %d, want %d", k, sent, want)
		}
		if (err != nil) != (k < len(all)) {
			t.Errorf("cut at %d: err %v", k, err)
		}
		if !bytes.Equal(conn.got, all[:k]) {
			t.Errorf("cut at %d: connection took %q", k, conn.got)
		}
	}
}

// runBatch queues frames for one peer, starts its writer over the given
// connections (one per dial) and waits until every frame is sent or lost.
// It returns the counters and how often OnSendFailure fired.
func runBatch(t *testing.T, frames [][]byte, conns ...*cutConn) (TCPStats, int64) {
	t.Helper()
	var failures atomic.Int64
	tr := &TCP{opts: TCPOptions{OnSendFailure: func(int) { failures.Add(1) }}.withDefaults()}
	tr.dial = func(*TCP, int) (net.Conn, error) {
		if len(conns) == 0 {
			return nil, errors.New("no connection left")
		}
		c := conns[0]
		conns = conns[1:]
		return c, nil
	}
	p := &tcpPeer{id: 1, out: make(chan *[]byte, len(frames)), done: make(chan struct{})}
	for _, f := range frames {
		b := append([]byte(nil), f...)
		p.out <- &b
	}
	tr.wg.Add(1)
	go tr.writeLoop(p)
	waitFor(t, func() bool {
		s := tr.Stats()
		return s.FramesSent+s.FramesLost == int64(len(frames))
	})
	close(p.done)
	tr.wg.Wait()
	return tr.Stats(), failures.Load()
}

// TestTCPRetryStartsAtTheCut: a batch whose write is cut after k bytes is
// retried on a fresh connection from the first frame the cut left
// unfinished. Frames written whole before the cut are not sent again, and a
// batch that fails on both connections counts each frame it did not write
// once in FramesLost, once in SendFailures and once in OnSendFailure.
func TestTCPRetryStartsAtTheCut(t *testing.T) {
	all := bytes.Join(testFrames, nil)
	for k := 0; k < len(all); k++ {
		cut := whole(testFrames, k)
		rest := bytes.Join(testFrames[cut:], nil)

		first, second := newCutConn(k), newCutConn(len(rest))
		s, failures := runBatch(t, testFrames, first, second)
		if !bytes.Equal(first.got, all[:k]) || !bytes.Equal(second.got, rest) {
			t.Errorf("cut at %d: first connection took %q, the retry %q; want %q, %q", k, first.got, second.got, all[:k], rest)
		}
		if s.FramesSent != int64(len(testFrames)) || s.FramesLost != 0 || s.SendFailures != 0 || failures != 0 || s.Writes != 2 {
			t.Errorf("cut at %d: retry that succeeds: stats %+v, %d OnSendFailure", k, s, failures)
		}

		for k2 := 0; k2 < len(rest); k2++ {
			first, second := newCutConn(k), newCutConn(k2)
			s, failures := runBatch(t, testFrames, first, second)
			sent := cut + whole(testFrames[cut:], k2)
			lost := int64(len(testFrames) - sent)
			if !bytes.Equal(second.got, rest[:k2]) {
				t.Errorf("cut at %d then %d: the retry took %q, want %q", k, k2, second.got, rest[:k2])
			}
			if s.FramesSent != int64(sent) || s.FramesLost != lost || s.SendFailures != lost || failures != lost {
				t.Errorf("cut at %d then %d: stats %+v, %d OnSendFailure; want %d sent, %d lost", k, k2, s, failures, sent, lost)
			}
		}
	}
	// A batch that is written whole is one write on one connection.
	conn := newCutConn(len(all))
	if s, _ := runBatch(t, testFrames, conn); s.Writes != 1 || s.FramesSent != int64(len(testFrames)) || !bytes.Equal(conn.got, all) {
		t.Errorf("uncut batch: stats %+v, connection took %q", s, conn.got)
	}
}

// frame is msg as the transport frames it.
func frame(msg wire.Message) []byte {
	b := wire.Append(make([]byte, 4), &msg)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// scriptConn is a connection whose reads play back a fixed byte stream.
type scriptConn struct {
	net.Conn
	r      *bytes.Reader
	eof    bool // a read found the stream exhausted
	closed bool
}

func (c *scriptConn) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.eof = c.eof || err == io.EOF
	return n, err
}

func (c *scriptConn) Close() error {
	c.closed = true
	return nil
}

// FuzzTCPReadFrames runs a connection's reader over a hello and arbitrary
// bytes. The handler must see exactly the messages of the leading
// well-formed frames; an absurd length or an undecodable payload must make
// the reader drop the connection there, before it reads to the end.
//
// The connection plays back a byte slice rather than being one end of a
// net.Pipe, so the reader runs on the fuzzing goroutine, and a reader that
// fails to drop the connection reads to the end instead of hanging.
func FuzzTCPReadFrames(f *testing.F) {
	one := frame(wire.Message{Kind: wire.KindDispatch, TravelID: 3, Entries: []model.VertexID{8}, Tag: frontier.Tag{Dest: -1}})
	two := frame(blobMsg(1, 300))
	f.Add(append(append([]byte(nil), one...), two...))
	f.Add(append(append([]byte(nil), one...), 0xff, 0xff, 0xff, 0xff))
	f.Add(append(append([]byte(nil), one...), 1, 0, 0, 0, 0xff))
	f.Add(append(append([]byte(nil), one...), two[:100]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []wire.Message
		drops := false // the reader must end the connection on its own
		for rest := data; len(rest) >= 4; {
			n := binary.LittleEndian.Uint32(rest)
			if n > 256<<20 {
				drops = true
				break
			}
			if uint64(len(rest)-4) < uint64(n) {
				break
			}
			msg, err := wire.Decode(rest[4 : 4+n])
			if err != nil {
				drops = true
				break
			}
			want = append(want, msg)
			rest = rest[4+n:]
		}

		var got []wire.Message
		tr := &TCP{inbound: make(map[net.Conn]bool), handler: func(from int, msg wire.Message) {
			if from != 7 {
				t.Errorf("message from %d, want 7", from)
			}
			got = append(got, msg)
		}}
		conn := &scriptConn{r: bytes.NewReader(append([]byte{7, 0, 0, 0}, data...))}
		tr.wg.Add(1)
		tr.readLoop(conn)
		if !conn.closed {
			t.Fatal("the reader returned without closing the connection")
		}
		if conn.eof == drops {
			t.Fatalf("the reader read to the end: %v; it should have dropped the connection first: %v", conn.eof, drops)
		}
		if len(got) != len(want) {
			t.Fatalf("handler saw %d messages, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(wire.Append(nil, &got[i]), wire.Append(nil, &want[i])) {
				t.Fatalf("message %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
