package stream

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// TestCloseWithCalloutsInFlight drives Close while the connection's
// timer is armed in each of its two roles — loss retransmission and
// zero-window persist probe — plus a lossy-but-recoverable FIN
// exchange. In every case the teardown must cancel the callout (no
// stale timer fires into a closed connection: the retransmission
// counter must not move after Close returns) and the ghost table must
// see at most one entry per retired key (ghostGen counts addGhost
// calls, so a double entry shows up even though the map would mask it).
// The loss conditions are armed through the kernel fault plan on the
// net's drop site — the same machinery kdpcheck -faults sweeps.
func TestCloseWithCalloutsInFlight(t *testing.T) {
	cases := []struct {
		name string
		// dropEvery arms the net drop site before the client writes
		// (0 = no drops).
		dropEvery int64
		// wedgeWindow writes a windowful the server never reads, so the
		// timer runs in persist-probe mode when Close is called.
		wedgeWindow bool
		// serverReads selects a server that drains to EOF and closes
		// (clean-teardown case) instead of parking forever.
		serverReads bool

		wantClose   error
		wantRetries int64 // -1: don't check
		wantProbes  int64 // -1: don't check
		wantGhosts  int   // per transport, client side
	}{
		// All datagrams lost from the first write on: the timer is
		// retransmitting when Close queues the FIN; retries exhaust and
		// Close surfaces ErrTimedOut. A failed connection never ghosts.
		{"close-during-retx", 1, false, false,
			kernel.ErrTimedOut, int64(maxRetries + 1), 0, 0},
		// The peer's window is wedged shut: the timer is in persist
		// mode when Close queues the FIN behind the unsendable data;
		// probes exhaust and Close surfaces ErrTimedOut.
		{"close-during-probe", 0, true, false,
			kernel.ErrTimedOut, 0, int64(maxRetries + 1), 0},
		// Every 4th datagram lost, both directions: FINs and ACKs are
		// retransmitted but get through; the close completes cleanly
		// and each side retires exactly one ghost entry.
		{"close-lossy-fin", 4, false, true,
			nil, -1, -1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			EnableInvariants(true)
			defer EnableInvariants(false)
			k := newK()
			n := socket.NewNet(k, socket.Loopback())
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)

			done := false
			k.Spawn("server", func(p *kernel.Proc) {
				_ = srv.Listen(p)
				fd, _, err := srv.Accept(p)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				if tc.serverReads {
					readToEOF(t, p, fd)
					if err := p.Close(fd); err != nil {
						t.Errorf("server close: %v", err)
					}
					return
				}
				for !done {
					_ = p.Sleep(&done, kernel.PWAIT)
				}
			})

			var c *Conn
			var closeErr error
			retxAfterClose := int64(-1)
			k.Spawn("client", func(p *kernel.Proc) {
				defer func() {
					done = true
					k.Wakeup(&done)
				}()
				fd, cc, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				c = cc
				if tc.dropEvery > 0 {
					k.Faults().Arm(kernel.FaultArm{
						Site: n.DropSite(), Every: tc.dropEvery,
						Match: kernel.MatchAny, Count: -1,
					})
				}
				payload := pattern(4096, 9)
				if tc.wedgeWindow {
					payload = pattern(sndCap+rcvCap, 9)
				}
				if _, err := p.Write(fd, payload); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				closeErr = p.Close(fd)
				// Quiet period: any stale callout still armed for this
				// connection would fire within one full backoff and
				// move the retransmission counter.
				retxAfterClose = c.retx
				p.SleepFor(sim.Duration(2*maxRTO) * 10 * sim.Millisecond)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if c == nil {
				t.Fatal("client never connected")
			}
			if closeErr != tc.wantClose {
				t.Fatalf("close = %v, want %v", closeErr, tc.wantClose)
			}
			if c.state != stateClosed {
				t.Fatalf("state = %v after close, want closed", c.state)
			}
			if c.rtx != (kernel.Callout{}) {
				t.Fatal("retransmission callout still armed after teardown")
			}
			if c.retx != retxAfterClose {
				t.Fatalf("stale callout fired into closed connection: retx %d -> %d",
					retxAfterClose, c.retx)
			}
			if tc.wantRetries >= 0 && c.retries != tc.wantRetries {
				t.Fatalf("retries = %d, want %d", c.retries, tc.wantRetries)
			}
			if tc.wantProbes >= 0 && c.probes != tc.wantProbes {
				t.Fatalf("probes = %d, want %d", c.probes, tc.wantProbes)
			}
			if len(cli.conns) != 0 {
				t.Fatal("connection still live on the client transport after close")
			}
			if got := int(cli.ghostGen); got != tc.wantGhosts {
				t.Fatalf("client addGhost calls = %d, want %d (double ghost entry?)",
					got, tc.wantGhosts)
			}
			if tc.serverReads {
				if got := int(srv.ghostGen); got != 1 {
					t.Fatalf("server addGhost calls = %d, want 1", got)
				}
			}
			if err := CheckInvariants(); err != nil {
				t.Fatalf("invariants after teardown: %v", err)
			}
		})
	}
}
