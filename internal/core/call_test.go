package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"graphtrek/internal/wire"
)

// TestCallTable drives the request/reply primitive against a fake send
// function — no transport, no cluster. Every case must leave the table
// empty: an entry that outlives its call is a leak and a misrouted reply
// waiting to happen.
func TestCallTable(t *testing.T) {
	const long = 10 * time.Second
	cases := []struct {
		name string
		// send is the fake transport; it may reply through tbl.resolve.
		send func(tbl *callTable, stop chan struct{}) func(int, wire.Message) error
		wait time.Duration
		// want is a substring of the expected error ("" = success).
		want string
		// after runs once do has returned, with the request as it was sent.
		after func(t *testing.T, tbl *callTable, sent wire.Message)
	}{
		{
			name: "reply delivered",
			send: func(tbl *callTable, _ chan struct{}) func(int, wire.Message) error {
				return func(to int, m wire.Message) error {
					go tbl.resolve(wire.Message{Kind: wire.KindWriteResp, ReqID: m.ReqID, Blob: []byte{byte(to)}})
					return nil
				}
			},
			wait: long,
		},
		{
			name: "remote error comes back with its reply",
			send: func(tbl *callTable, _ chan struct{}) func(int, wire.Message) error {
				return func(_ int, m wire.Message) error {
					go tbl.resolve(wire.Message{ReqID: m.ReqID, Err: "core: nope"})
					return nil
				}
			},
			wait: long,
			want: "core: nope",
		},
		{
			name: "timeout returns and unregisters; the late reply is dropped",
			send: func(*callTable, chan struct{}) func(int, wire.Message) error {
				return func(int, wire.Message) error { return nil }
			},
			wait: 20 * time.Millisecond,
			want: "timed out",
			after: func(t *testing.T, tbl *callTable, sent wire.Message) {
				// The dispatcher goroutine delivering a late reply must not
				// block on a call nobody is waiting in any more.
				done := make(chan bool, 1)
				go func() { done <- tbl.resolve(wire.Message{ReqID: sent.ReqID}) }()
				select {
				case matched := <-done:
					if matched {
						t.Error("late reply matched a call that had timed out")
					}
				case <-time.After(long):
					t.Fatal("resolve blocked on a late reply")
				}
			},
		},
		{
			name: "failed send",
			send: func(*callTable, chan struct{}) func(int, wire.Message) error {
				return func(int, wire.Message) error { return errors.New("link down") }
			},
			wait: long,
			want: "link down",
		},
		{
			name: "stop unblocks",
			send: func(_ *callTable, stop chan struct{}) func(int, wire.Message) error {
				return func(int, wire.Message) error { close(stop); return nil }
			},
			wait: long,
			want: "server closing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stop := make(chan struct{})
			tbl := &callTable{stop: stop}
			var sent wire.Message
			send := tc.send(tbl, stop)
			tbl.send = func(to int, m wire.Message) error {
				sent = m
				return send(to, m)
			}
			start := time.Now()
			resp, err := tbl.do(7, wire.Message{Kind: wire.KindWriteReq}, start.Add(tc.wait))
			if took := time.Since(start); took > long/2 {
				t.Fatalf("do took %v", took)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("do: %v", err)
			case tc.want == "" && (resp.ReqID != sent.ReqID || len(resp.Blob) != 1 || resp.Blob[0] != 7):
				t.Fatalf("reply %+v does not answer request %+v", resp, sent)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("do error = %v, want one containing %q", err, tc.want)
			}
			if sent.ReqID == 0 {
				t.Error("request went out without a ReqID")
			}
			if tc.after != nil {
				tc.after(t, tbl, sent)
			}
			tbl.mu.Lock()
			left := len(tbl.waiting)
			tbl.mu.Unlock()
			if left != 0 {
				t.Errorf("%d calls still registered after do returned", left)
			}
		})
	}
	if _, err := new(callTable).do(0, wire.Message{}, time.Now().Add(long)); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("do on an unbound table: %v", err)
	}
}

// TestCallTableConcurrent has many goroutines share one table while an echo
// "server" answers out of order; run under -race (make stress runs the
// package that way) it is the data-race check on the table's one mutex.
func TestCallTableConcurrent(t *testing.T) {
	tbl := &callTable{}
	tbl.send = func(to int, m wire.Message) error {
		go tbl.resolve(wire.Message{ReqID: m.ReqID, Part: int32(to)})
		return nil
	}
	const callers = 32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				resp, err := tbl.do(i, wire.Message{}, time.Now().Add(10*time.Second))
				if err == nil && int(resp.Part) != i {
					err = errors.New("reply crossed callers")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
