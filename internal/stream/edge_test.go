package stream

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// Close/edge-path tests the poll layer leans on: simultaneous FIN
// exchange, zero-window persist give-up, and readiness transitions
// when a connection fails.

// readN reads exactly n bytes from fd (the peer has not closed yet, so
// readToEOF does not apply).
func readN(t *testing.T, p *kernel.Proc, fd, n int) []byte {
	t.Helper()
	out := make([]byte, 0, n)
	buf := make([]byte, 4096)
	for len(out) < n {
		rn, err := p.Read(fd, buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return out
		}
		if rn == 0 {
			t.Errorf("unexpected EOF after %d of %d bytes", len(out), n)
			return out
		}
		out = append(out, buf[:rn]...)
	}
	return out
}

// TestStreamSimultaneousFin crosses FINs: both sides write, drain the
// peer, rendezvous, and then Close at the same virtual instant, so
// neither FIN is an answer to the other. Both closes must complete
// cleanly and both connections must retire to ghosts.
func TestStreamSimultaneousFin(t *testing.T) {
	cases := []struct {
		name     string
		cliBytes int
		srvBytes int
	}{
		{"no-data", 0, 0},
		{"client-data", 12 << 10, 0},
		{"both-data", 20 << 10, 16 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newK()
			n := socket.NewNet(k, socket.Loopback())
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)
			cliMsg := pattern(tc.cliBytes, 21)
			srvMsg := pattern(tc.srvBytes, 22)
			var gotCli, gotSrv []byte
			ready := 0 // rendezvous: both sides Close only once both have drained

			side := func(write []byte, wantRead []byte, got *[]byte, who string) func(p *kernel.Proc, fd int) {
				return func(p *kernel.Proc, fd int) {
					if len(write) > 0 {
						if _, err := p.Write(fd, write); err != nil {
							t.Errorf("%s write: %v", who, err)
							return
						}
					}
					*got = readN(t, p, fd, len(wantRead))
					ready++
					k.Wakeup(&ready)
					for ready < 2 {
						_ = p.Sleep(&ready, kernel.PWAIT)
					}
					if err := p.Close(fd); err != nil {
						t.Errorf("%s close: %v", who, err)
					}
				}
			}

			k.Spawn("server", func(p *kernel.Proc) {
				_ = srv.Listen(p)
				fd, _, err := srv.Accept(p)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				side(srvMsg, cliMsg, &gotCli, "server")(p, fd)
			})
			k.Spawn("client", func(p *kernel.Proc) {
				fd, _, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				side(cliMsg, srvMsg, &gotSrv, "client")(p, fd)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCli, cliMsg) || !bytes.Equal(gotSrv, srvMsg) {
				t.Fatalf("transfer mismatch: server got %d/%d, client got %d/%d",
					len(gotCli), len(cliMsg), len(gotSrv), len(srvMsg))
			}
			if len(srv.conns) != 0 || len(cli.conns) != 0 {
				t.Fatalf("live connections after simultaneous close: srv=%d cli=%d",
					len(srv.conns), len(cli.conns))
			}
		})
	}
}

// TestStreamZeroWindowPersistGiveUp wedges the advertised window shut
// (the receiver accepts a windowful and never reads) and verifies the
// sender's persist timer gives up after maxRetries consecutive
// unanswered probes, surfacing ErrTimedOut through each of the paths a
// poll-driven caller would observe it on.
func TestStreamZeroWindowPersistGiveUp(t *testing.T) {
	cases := []struct {
		name    string
		observe func(t *testing.T, p *kernel.Proc, fd int)
	}{
		// A write parked behind the full send buffer errors out when
		// the connection is declared dead.
		{"blocked-write", func(t *testing.T, p *kernel.Proc, fd int) {
			if _, err := p.Write(fd, pattern(rcvCap, 31)); err != kernel.ErrTimedOut {
				t.Errorf("blocked write: err=%v, want ErrTimedOut", err)
			}
		}},
		// A poller sleeping on the idle receive side wakes with
		// PollErr when the persist timer fails the connection.
		{"poll-error", func(t *testing.T, p *kernel.Proc, fd int) {
			fds := []kernel.PollFd{{FD: fd, Events: kernel.PollIn}}
			n, err := p.Poll(fds, -1)
			if err != nil || n != 1 {
				t.Errorf("poll: n=%d err=%v, want 1 <nil>", n, err)
				return
			}
			if fds[0].Revents&kernel.PollErr == 0 {
				t.Errorf("poll revents=%#x, want PollErr set", fds[0].Revents)
			}
			if _, err := p.Read(fd, make([]byte, 1)); err != kernel.ErrTimedOut {
				t.Errorf("read after failure: err=%v, want ErrTimedOut", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newK()
			n := socket.NewNet(k, socket.Loopback())
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)
			var sender *Conn
			done := false
			k.Spawn("server", func(p *kernel.Proc) {
				_ = srv.Listen(p)
				_, _, err := srv.Accept(p)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				// Never read: the receive buffer fills, the advertised
				// window closes, and it never reopens.
				for !done {
					_ = p.Sleep(&done, kernel.PWAIT)
				}
			})
			k.Spawn("client", func(p *kernel.Proc) {
				fd, c, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				sender = c
				// A healthy established connection is writable.
				fds := []kernel.PollFd{{FD: fd, Events: kernel.PollOut}}
				if pn, err := p.Poll(fds, 0); err != nil || pn != 1 ||
					fds[0].Revents != kernel.PollOut {
					t.Errorf("pre-failure poll: n=%d err=%v revents=%#x, want PollOut",
						pn, err, fds[0].Revents)
				}
				// Wedge the pipe: a windowful lands in the peer's
				// receive buffer (and is acknowledged), leaving the send
				// buffer full of bytes waiting on credit that never
				// comes.
				if _, err := p.Write(fd, pattern(sndCap+rcvCap, 30)); err != nil {
					t.Errorf("write: %v", err)
				}
				tc.observe(t, p, fd)
				done = true
				k.Wakeup(&done)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if sender == nil {
				t.Fatal("client never connected")
			}
			if sender.Err() != kernel.ErrTimedOut {
				t.Fatalf("sender error = %v, want ErrTimedOut", sender.Err())
			}
			if sender.probes != maxRetries+1 {
				t.Fatalf("sender gave up after %d probes, want %d", sender.probes, maxRetries+1)
			}
			if sender.retries > maxRetries {
				t.Fatalf("persist probes leaked into the loss-retry budget: retries=%d", sender.retries)
			}
			if len(cli.conns) != 0 {
				t.Fatalf("failed connection still live on the client transport")
			}
		})
	}
}

// TestStreamFailureReadiness walks the readiness transitions around a
// connection failure: established reports plain PollOut, a poller
// parked on the idle receive side is woken the instant the connection
// fails, and afterwards readiness latches PollIn|PollErr with Read and
// Write surfacing the terminal error. ErrConnRefused stands in for an
// asynchronous refusal (a port-unreachable arriving mid-connection);
// ErrTimedOut is the organic retry-exhaustion path.
func TestStreamFailureReadiness(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"conn-refused", kernel.ErrConnRefused},
		{"timed-out", kernel.ErrTimedOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newK()
			n := socket.NewNet(k, socket.Loopback())
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)
			done := false
			k.Spawn("server", func(p *kernel.Proc) {
				_ = srv.Listen(p)
				if _, _, err := srv.Accept(p); err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				for !done {
					_ = p.Sleep(&done, kernel.PWAIT)
				}
			})
			k.Spawn("client", func(p *kernel.Proc) {
				defer func() {
					done = true
					k.Wakeup(&done)
				}()
				fd, c, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				// Established, nothing buffered: writable, not readable,
				// no error condition.
				fds := []kernel.PollFd{{FD: fd, Events: kernel.PollIn | kernel.PollOut}}
				if pn, err := p.Poll(fds, 0); err != nil || pn != 1 ||
					fds[0].Revents != kernel.PollOut {
					t.Errorf("established poll: n=%d err=%v revents=%#x, want PollOut",
						pn, err, fds[0].Revents)
				}
				// A splice read parked on the idle receive side and a splice
				// write stranded behind the full send buffer (the server
				// never reads) are parked callers too: the failure must
				// complete each exactly once with the terminal error.
				var parked []error
				c.SpliceRead(64, func(_ []byte, _ bool, err error) { parked = append(parked, err) })
				c.SpliceWrite(make([]byte, sndCap+rcvCap+MaxSeg+1), func(err error) { parked = append(parked, err) })
				defer func() {
					if len(parked) != 2 || parked[0] != tc.err || parked[1] != tc.err {
						t.Errorf("parked splice write and read completed with %v, want %v once each", parked, tc.err)
					}
				}()
				// Fail the connection at interrupt level while a poller
				// sleeps on the receive side.
				k.Timeout(func() { c.fail(tc.err) }, 5)
				fds[0] = kernel.PollFd{FD: fd, Events: kernel.PollIn}
				pn, err := p.Poll(fds, -1)
				if err != nil || pn != 1 {
					t.Errorf("poll across failure: n=%d err=%v, want 1 <nil>", pn, err)
					return
				}
				if fds[0].Revents&(kernel.PollIn|kernel.PollErr) != kernel.PollIn|kernel.PollErr {
					t.Errorf("post-failure revents=%#x, want PollIn|PollErr", fds[0].Revents)
				}
				// The error latches: a zero-timeout rescan still reports
				// it, and both data paths surface the terminal error.
				fds[0].Revents = 0
				if pn, err := p.Poll(fds, 0); err != nil || pn != 1 ||
					fds[0].Revents&kernel.PollErr == 0 {
					t.Errorf("latched poll: n=%d err=%v revents=%#x, want PollErr",
						pn, err, fds[0].Revents)
				}
				if _, err := p.Read(fd, make([]byte, 1)); err != tc.err {
					t.Errorf("read: err=%v, want %v", err, tc.err)
				}
				if _, err := p.Write(fd, []byte{1}); err != tc.err {
					t.Errorf("write: err=%v, want %v", err, tc.err)
				}
				if c.Err() != tc.err {
					t.Errorf("conn error = %v, want %v", c.Err(), tc.err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(cli.conns) != 0 {
				t.Fatalf("failed connection still live on the client transport")
			}
		})
	}
}

// leaks reports whether err is the stream-conn-leak violation whose
// detail ends in what: the drain check has one name and seven cases.
func leaks(err error, what string) bool {
	var ie *kernel.InvariantError
	return errors.As(err, &ie) && ie.Name == "stream-conn-leak" && strings.HasSuffix(ie.Detail, what)
}

// TestConnSpliceWiring walks the connection's use of the shared endpoint
// types: the one-read-at-a-time rule, cancellation, a parked read served
// by the arrival interrupt, the nonblocking write arm, and the
// stream-conn-leak invariant seeing a parked read and a queued write
// through the shared types' accessors.
func TestConnSpliceWiring(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	var log []string
	deliver := func(tag string) func([]byte, bool, error) {
		return func(data []byte, eof bool, err error) {
			log = append(log, fmt.Sprintf("%s:%q eof=%v err=%v", tag, data, eof, err))
		}
	}
	var received int
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		p.SleepFor(20 * sim.Millisecond)
		if _, err := p.Write(fd, []byte("hello")); err != nil {
			t.Errorf("write: %v", err)
		}
		p.SleepFor(20 * sim.Millisecond) // the client's send buffer fills meanwhile
		received = len(readToEOF(t, p, fd))
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, c, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.SpliceRead(3, deliver("a")) // parks
		c.SpliceRead(3, deliver("b")) // refused; a stays parked
		if !leaks(cli.CheckDrained(), "splice read still parked") {
			t.Errorf("CheckDrained with a parked read: %v", cli.CheckDrained())
		}
		if !c.CancelSpliceRead() || c.CancelSpliceRead() {
			t.Error("CancelSpliceRead did not withdraw the parked read exactly once")
		}
		c.SpliceRead(3, deliver("c")) // parks; served when "hello" arrives
		p.SleepFor(30 * sim.Millisecond)
		c.SpliceRead(16, deliver("d")) // the rest is waiting: delivered at once

		// Nonblocking: what fits goes in, then nothing does; a splice
		// write behind the full buffer queues, and the leak check sees it.
		nb := p.NBCtx()
		if wn, err := c.Write(nb, make([]byte, sndCap+100), 0); wn != sndCap || err != nil {
			t.Errorf("nonblocking write = (%d, %v), want the %d that fit", wn, err, sndCap)
		}
		if wn, err := c.Write(nb, []byte("x"), 0); wn != 0 || err != kernel.ErrWouldBlock {
			t.Errorf("nonblocking write into a full send buffer = (%d, %v)", wn, err)
		}
		c.SpliceWrite(make([]byte, 100), func(err error) { log = append(log, fmt.Sprintf("w:%v", err)) })
		if !leaks(cli.CheckDrained(), "1 write(s) never admitted") {
			t.Errorf("CheckDrained with a queued write: %v", cli.CheckDrained())
		}
		if err := p.Close(fd); err != nil { // force-admits the queued write under the FIN
			t.Errorf("close: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`b:"" eof=false err=operation would block`,
		`c:"hel" eof=false err=<nil>`,
		`d:"lo" eof=false err=<nil>`,
		`w:<nil>`,
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("completions:\n got %q\nwant %q", log, want)
	}
	if received != sndCap+100 {
		t.Errorf("server received %d bytes, want %d", received, sndCap+100)
	}
	if err := k.CheckDrained(); err != nil {
		t.Errorf("after both closes: %v", err)
	}
}
