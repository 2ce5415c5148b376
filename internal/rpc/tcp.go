package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"graphtrek/internal/wire"
)

// ErrBackpressure is returned by TCP.Send when a peer's outbox stays full
// for the bounded wait — the peer is stuck or the link is down, and the
// caller must not block forever behind it.
var ErrBackpressure = errors.New("rpc: peer outbox full (backpressure)")

// framePool recycles encode buffers between Send and the writer goroutines:
// a frame is taken here, filled, handed through the outbox, and returned
// once written (or lost). High-rate dispatch traffic would otherwise
// allocate every frame and feed it straight to the GC. The *[]byte the pool
// holds is what travels: boxing a slice anew on every put would allocate
// its header, and a pointer is a third of a slice in every outbox slot.
var framePool sync.Pool // holds *[]byte

// maxPooledFrame caps the buffers the pool retains: an occasional huge
// frame (a snapshot chunk, a giant plan) should not stay pinned forever.
const maxPooledFrame = 1 << 20

// getFrame returns a frame buffer with the 4-byte length header reserved.
func getFrame() *[]byte {
	if p, ok := framePool.Get().(*[]byte); ok {
		*p = (*p)[:4]
		return p
	}
	b := make([]byte, 4, 4+512)
	return &b
}

// putFrame recycles a frame buffer once no goroutine references it.
func putFrame(p *[]byte) {
	if cap(*p) <= maxPooledFrame {
		framePool.Put(p)
	}
}

// TCP is the network transport for standalone deployments: every node
// listens on one address and lazily dials its peers. Frames are
// [length: 4 bytes LE][wire-encoded message]; the first frame on a dialed
// connection is a 4-byte hello carrying the dialer's node id.
//
// A dedicated writer goroutine per peer preserves per-pair FIFO order, and
// each inbound connection is read (and its handler invoked) sequentially,
// so the ordering contract matches the in-process Fabric. The Handler must
// therefore be safe for concurrent calls from different peers. One system
// call carries many frames: the writer sends a frame with whatever else is
// already queued for the peer (up to 64; it never waits for more) in one
// writev, and a connection is read through a bufio.Reader.
//
// Failure behavior: a broken peer connection is redialed with capped
// exponential backoff. A failed batch is retried once on a fresh
// connection from the first frame the kernel did not take whole — the
// engines tolerate duplicates, and the retry is what lets a restarted peer
// pick up where it left off — and a frame the retry does not write is lost
// (the engine's failure detector, not the transport, provides delivery
// guarantees). While a peer is unreachable its outbox fills, and Send
// fails with ErrBackpressure after Options.SendTimeout instead of blocking
// forever.
type TCP struct {
	self    int
	addrs   []string
	handler Handler
	ln      net.Listener
	opts    TCPOptions
	dial    func(t *TCP, to int) (net.Conn, error) // (*TCP).dialTCP; tests substitute failing connections

	mu      sync.Mutex
	peers   map[int]*tcpPeer
	inbound map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup

	reconnects, sendFailures, framesLost  atomic.Int64
	framesSent, writes, framesRead, reads atomic.Int64
}

var _ Transport = (*TCP)(nil)

// TCPOptions tunes the transport's robustness behavior. The zero value
// selects the defaults.
type TCPOptions struct {
	// OutboxSize is the per-peer outbox depth (default 4096 frames).
	OutboxSize int
	// SendTimeout bounds how long Send waits on a full outbox before
	// returning ErrBackpressure (default 2s; negative fails immediately).
	SendTimeout time.Duration
	// DialBackoffBase is the first redial delay after a connection failure
	// (default 50ms); it doubles per consecutive failure.
	DialBackoffBase time.Duration
	// DialBackoffMax caps the redial delay (default 2s).
	DialBackoffMax time.Duration
	// OnReconnect, when set, is invoked after a peer connection is
	// re-established following a loss (not on the first dial).
	OnReconnect func(peer int)
	// OnSendFailure, when set, is invoked when a frame is lost to a write
	// error or rejected by backpressure.
	OnSendFailure func(peer int)
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.OutboxSize <= 0 {
		o.OutboxSize = 4096
	}
	if o.SendTimeout == 0 {
		o.SendTimeout = 2 * time.Second
	}
	if o.DialBackoffBase <= 0 {
		o.DialBackoffBase = 50 * time.Millisecond
	}
	if o.DialBackoffMax <= 0 {
		o.DialBackoffMax = 2 * time.Second
	}
	return o
}

// TCPStats is a snapshot of the transport's counters.
type TCPStats struct {
	// Reconnects counts successful re-dials after a lost connection.
	Reconnects int64
	// SendFailures counts frames rejected by backpressure plus frames
	// lost to write errors.
	SendFailures int64
	// FramesLost counts frames accepted into an outbox but lost to a
	// write or dial failure.
	FramesLost int64
	// Frames written whole and read, and the writes and reads that carried them.
	FramesSent, Writes, FramesRead, Reads int64
}

type tcpPeer struct {
	id   int
	out  chan *[]byte
	done chan struct{}
	// connDead is set by the connection monitor when the peer closes or
	// resets the outbound connection. Outbound connections are write-only,
	// so without the monitor a peer's death is invisible until a write
	// fails — and the kernel accepts the first write after a FIN, silently
	// losing the frame. connGen keeps a stale monitor (for an already
	// replaced connection) from flagging the live one.
	connDead atomic.Bool
	connGen  atomic.Uint64
}

// NewTCP starts a TCP transport for node self among the given peer
// addresses (index = node id) with default options. The handler receives
// every inbound message.
func NewTCP(self int, addrs []string, h Handler) (*TCP, error) {
	return NewTCPWithOptions(self, addrs, h, TCPOptions{})
}

// NewTCPWithOptions starts a TCP transport with explicit robustness
// options.
func NewTCPWithOptions(self int, addrs []string, h Handler, opts TCPOptions) (*TCP, error) {
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("rpc: self %d out of range", self)
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addrs[self], err)
	}
	addrs = append([]string(nil), addrs...)
	addrs[self] = ln.Addr().String() // resolve ":0" to the bound port
	t := &TCP{
		self: self, addrs: addrs, handler: h, ln: ln, dial: (*TCP).dialTCP,
		opts:    opts.withDefaults(),
		peers:   make(map[int]*tcpPeer),
		inbound: make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful when the
// configured address used port 0).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Stats returns the transport's counters.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		Reconnects:   t.reconnects.Load(),
		SendFailures: t.sendFailures.Load(),
		FramesLost:   t.framesLost.Load(),
		FramesSent:   t.framesSent.Load(),
		Writes:       t.writes.Load(),
		FramesRead:   t.framesRead.Load(),
		Reads:        t.reads.Load(),
	}
}

// PatchAddrs replaces the peer address list — used when a cluster binds
// ephemeral ports one node at a time and the final list is only known once
// every node is up. It must be called before the first Send to any
// not-yet-dialed peer; established connections are unaffected.
func (t *TCP) PatchAddrs(addrs []string) error {
	if len(addrs) != len(t.addrs) {
		return fmt.Errorf("rpc: PatchAddrs length %d != %d", len(addrs), len(t.addrs))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	copy(t.addrs, addrs)
	t.addrs[t.self] = t.ln.Addr().String()
	return nil
}

// Self implements Transport.
func (t *TCP) Self() int { return t.self }

// N implements Transport.
func (t *TCP) N() int { return len(t.addrs) }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(countingReader{conn, &t.reads})
	var lenBuf [4]byte // the hello, then each frame's length
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	from := int(binary.LittleEndian.Uint32(lenBuf[:]))
	var payload []byte // reused across frames; wire.Decode never aliases it
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > 256<<20 {
			return // absurd frame, drop the connection
		}
		var buf []byte
		var err error
		if n > maxPooledFrame { // a snapshot chunk: grown as it arrives, and not kept
			buf, err = io.ReadAll(io.LimitReader(r, int64(n)))
		} else {
			if uint32(cap(payload)) < n {
				payload = make([]byte, n)
			}
			buf = payload[:n]
			_, err = io.ReadFull(r, buf)
		}
		if err != nil || uint32(len(buf)) < n {
			return
		}
		t.framesRead.Add(1)
		msg, err := wire.Decode(buf)
		if err != nil {
			return
		}
		t.handler(from, msg)
	}
}

// countingReader counts the reads under a connection's bufio.Reader.
type countingReader struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) { c.reads.Add(1); return c.Conn.Read(b) }

// Send implements Transport. A full outbox is waited on for at most
// SendTimeout before ErrBackpressure — a stuck peer cannot wedge the
// engine's worker goroutines indefinitely.
func (t *TCP) Send(to int, msg wire.Message) error {
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("rpc: no such node %d", to)
	}
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	frame := getFrame()
	*frame = wire.Append(*frame, &msg)
	binary.LittleEndian.PutUint32((*frame)[:4], uint32(len(*frame)-4))
	select {
	case p.out <- frame:
		return nil
	case <-p.done:
		putFrame(frame)
		return ErrClosed
	default:
	}
	if t.opts.SendTimeout < 0 {
		putFrame(frame)
		return t.rejectFrame(to)
	}
	timer := time.NewTimer(t.opts.SendTimeout)
	defer timer.Stop()
	select {
	case p.out <- frame:
		return nil
	case <-p.done:
		putFrame(frame)
		return ErrClosed
	case <-timer.C:
		putFrame(frame)
		return t.rejectFrame(to)
	}
}

func (t *TCP) rejectFrame(to int) error {
	t.sendFailures.Add(1)
	if t.opts.OnSendFailure != nil {
		t.opts.OnSendFailure(to)
	}
	return fmt.Errorf("rpc: send to node %d: %w", to, ErrBackpressure)
}

// peer returns node to's outbox, starting its writer (which dials, and
// redials on failure) on first use.
func (t *TCP) peer(to int) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if p, ok := t.peers[to]; ok {
		return p, nil
	}
	p := &tcpPeer{id: to, out: make(chan *[]byte, t.opts.OutboxSize), done: make(chan struct{})}
	t.peers[to] = p
	t.wg.Add(1)
	go t.writeLoop(p)
	return p, nil
}

// dialTCP establishes one outbound connection to peer and sends the hello
// frame identifying this node.
func (t *TCP) dialTCP(to int) (net.Conn, error) {
	t.mu.Lock()
	addr := t.addrs[to]
	t.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, uint32(t.self))); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeFrames writes frames to conn in one vectored write (writev on a TCP
// connection), consuming them, and reports how many the kernel took whole.
func writeFrames(conn net.Conn, frames *net.Buffers) (sent int, err error) {
	n := len(*frames)
	_, err = frames.WriteTo(conn)
	return n - len(*frames), err
}

// writeLoop owns one peer's connection: it dials (with capped exponential
// backoff on failure), drains the outbox a batch at a time, and on a dead
// connection redials and retries the batch once. A frame is lost only when
// the retry fails too, with loss made visible through the counters.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := t.opts.DialBackoffBase
	everConnected := false
	connect := func() bool {
		for conn == nil {
			select {
			case <-p.done:
				return false
			default:
			}
			c, err := t.dial(t, p.id)
			if err != nil {
				select {
				case <-p.done:
					return false
				case <-time.After(backoff):
				}
				backoff = min(2*backoff, t.opts.DialBackoffMax)
				continue
			}
			conn = c
			p.connDead.Store(false)
			t.monitorConn(c, p, p.connGen.Add(1))
			if everConnected {
				t.reconnects.Add(1)
				if t.opts.OnReconnect != nil {
					t.opts.OnReconnect(p.id)
				}
			}
			everConnected = true
			backoff = t.opts.DialBackoffBase
		}
		return true
	}
	batch := make([]*[]byte, 0, 64) // its capacity bounds the frames one write carries
	vec := make([][]byte, cap(batch))
	var bufs net.Buffers // writeFrames consumes it; declared once, it escapes once
	// write sends batch, retrying once from the first frame not written whole.
	// Once closing, connect refuses to redial: the last flush is best effort.
	write := func() {
		sent := 0
		for attempt := 0; attempt < 2 && sent < len(batch); attempt++ {
			if conn != nil && p.connDead.Load() {
				conn.Close()
				conn = nil
			}
			if conn == nil && !connect() {
				t.framesLost.Add(int64(len(batch) - sent))
				return // transport closing
			}
			bufs = vec[:0]
			for _, frame := range batch[sent:] {
				bufs = append(bufs, *frame)
			}
			n, err := writeFrames(conn, &bufs)
			t.writes.Add(1)
			t.framesSent.Add(int64(n))
			if sent += n; err != nil {
				conn.Close()
				conn = nil
			}
		}
		lost := len(batch) - sent
		t.framesLost.Add(int64(lost))
		t.sendFailures.Add(int64(lost))
		for ; lost > 0 && t.opts.OnSendFailure != nil; lost-- {
			t.opts.OnSendFailure(p.id)
		}
	}
	for {
		select {
		case frame := <-p.out:
			batch = append(batch, frame)
		case <-p.done: // flush what is already queued, then stop
		}
		for len(batch) < cap(batch) && len(p.out) > 0 {
			batch = append(batch, <-p.out) // only this goroutine receives
		}
		if len(batch) == 0 {
			return // closing, and nothing is queued
		}
		write()
		for _, frame := range batch {
			putFrame(frame)
		}
		clear(batch) // a stale pointer would keep a frame the pool has let go
		batch = batch[:0]
	}
}

// monitorConn watches an outbound (write-only) connection for the peer
// closing its end. The protocol never sends data back on a dialed
// connection, so Read returning — EOF, reset, or local close — means the
// connection is gone; the flag tells writeLoop to redial before the next
// write instead of burying it in a dead socket.
func (t *TCP) monitorConn(conn net.Conn, p *tcpPeer, gen uint64) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var b [1]byte
		conn.Read(b[:])
		if p.connGen.Load() == gen {
			p.connDead.Store(true)
		}
	}()
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := t.peers
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, p := range peers {
		close(p.done)
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
