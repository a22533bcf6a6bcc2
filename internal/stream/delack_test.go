package stream

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/trace"
)

// owed reports that c has accepted bytes that no segment it sent has
// acknowledged yet: every send stamps rcvAdv-advWnd with the ack it
// carried.
func owed(c *Conn) bool { return c.rcvAdv-c.advWnd < c.rcvNxt }

// delackRig is one server transport on port 80 and one client on port
// 5001, with the checker on and probed at every scheduling boundary,
// followed by watch when it is not nil.
func delackRig(t *testing.T, p socket.NetParams, watch func()) (k *kernel.Kernel, n *socket.Net, srv, cli *Transport) {
	t.Helper()
	k = newK()
	n = socket.NewNet(k, p)
	srv, _ = NewTransport(k, n, 80)
	cli, _ = NewTransport(k, n, 5001)
	k.SetProbe(func() {
		if err := k.CheckInvariants(); err != nil {
			k.Abort(err)
		}
		if watch != nil {
			watch()
		}
	})
	return k, n, srv, cli
}

// sendAll connects cli to port 80, writes msg in 8 KB writes, sleeps
// for pause, and closes. It returns the client's connection through c.
func sendAll(t *testing.T, k *kernel.Kernel, cli *Transport, msg []byte, pause sim.Duration, c **Conn) {
	k.Spawn("client", func(p *kernel.Proc) {
		fd, sc, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		*c = sc
		for off := 0; off < len(msg); off += MaxSeg {
			if _, err := p.Write(fd, msg[off:min(off+MaxSeg, len(msg))]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		p.SleepFor(pause)
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// recvAll accepts one connection on srv, sleeps for delay, reads to EOF
// in 8 KB reads into *got and closes. It returns the server's
// connection through c.
func recvAll(t *testing.T, k *kernel.Kernel, srv *Transport, delay sim.Duration, got *[]byte, c **Conn) {
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, rc, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		*c = rc
		p.SleepFor(delay)
		buf := make([]byte, MaxSeg)
		for {
			rn, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if rn == 0 {
				break
			}
			*got = append(*got, buf[:rn]...)
		}
		_ = p.Close(fd)
	})
}

// TestDelayedAckEconomy holds the receiver to 4.3BSD's acknowledgement
// rules. In-order data waits up to one fast-timeout period for a
// segment to carry its ACK, and the reader's drain sends a window update
// only every two segments, so a prompt reader's transfer costs one pure
// ACK per two data segments instead of two per segment. Anything out of
// the ordinary (a held-back segment, a duplicate, a FIN) is ACKed in the
// interrupt that brought it, and a reader that stops reading still has
// its data ACKed by the fast timeout before the sender's RTO.
func TestDelayedAckEconomy(t *testing.T) {
	t.Run("prompt-reader", func(t *testing.T) {
		var rc, sc *Conn
		since, worst := int64(-1), int64(0) // tick since which the receiver has owed an ACK
		var k *kernel.Kernel
		k, _, srv, cli := delackRig(t, socket.Ethernet10(), func() {
			switch {
			case rc == nil || !owed(rc):
				since = -1
			case since < 0:
				since = k.Ticks()
			default:
				worst = max(worst, k.Ticks()-since)
			}
		})
		col := &trace.Collector{}
		k.StartTrace(col)
		var data, acks int
		srv.sock.SetHandler(func(p *socket.Packet, from int, eof bool) bool {
			if seg, ok := decodeSegment(p); ok && seg.typ == segDATA {
				data++
			}
			return srv.input(p, from, eof)
		})
		cli.sock.SetHandler(func(p *socket.Packet, from int, eof bool) bool {
			if seg, ok := decodeSegment(p); ok && seg.typ == segACK {
				acks++
			}
			return cli.input(p, from, eof)
		})
		msg := longPattern(1 << 20)
		var got []byte
		recvAll(t, k, srv, 0, &got, &rc)
		sendAll(t, k, cli, msg, 0, &sc)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("received %d bytes, want %d", len(got), len(msg))
		}
		if acks > data/2+3 {
			t.Errorf("%d pure ACKs for %d data segments, want at most %d", acks, data, data/2+3)
		}
		// The reader's drain sends the window updates that carry nearly
		// every ACK; the fast timeout mops up what is left between them.
		if delayed := delacks(col, -1); delayed > 3 {
			t.Errorf("the fast timeout sent %d of %d pure ACKs, want at most 3", delayed, acks)
		}
		if worst > fastTicks {
			t.Errorf("an in-order byte waited %d ticks for its ACK, want at most %d", worst, fastTicks)
		}
		if sc.Retransmits() != 0 {
			t.Errorf("%d retransmissions on a loss-free link", sc.Retransmits())
		}
	})

	t.Run("ack-now", func(t *testing.T) {
		// A long link: a segment held back one extra propagation period
		// is overtaken by the segments serialized behind it.
		link := socket.Ethernet10()
		link.Latency = 20 * sim.Millisecond
		k, n, srv, cli := delackRig(t, link, nil)
		k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), Every: 5, Match: kernel.MatchAny, Count: -1, Quiet: true})
		k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), Every: 7, Match: kernel.MatchAny, Count: -1, Quiet: true})
		seen := map[string]int{}
		srv.sock.SetHandler(func(p *socket.Packet, from int, eof bool) bool {
			if eof {
				return srv.input(p, from, eof)
			}
			seg, ok := decodeSegment(p)
			c := srv.conns[connKey(from, seg.connID)]
			if !ok || c == nil {
				return srv.input(p, from, eof)
			}
			class := ""
			switch end := seg.seq + int64(p.Len()-hdrBytes); {
			case seg.typ == segFIN:
				class = "FIN"
			case seg.typ != segDATA:
			case end <= c.rcvNxt && owed(c):
				class = "duplicate" // its first copy left an ACK owed
			case seg.seq <= c.rcvNxt && len(c.reasm) > 0:
				class = "held-back segment"
			}
			kept := srv.input(p, from, eof)
			if class == "" {
				return kept
			}
			seen[class]++
			if owed(c) || c.delack {
				t.Errorf("a %s at offset %d left its ACK owed", class, seg.seq)
			}
			return kept
		})
		msg := longPattern(256 << 10)
		var got []byte
		var rc, sc *Conn
		recvAll(t, k, srv, 0, &got, &rc)
		sendAll(t, k, cli, msg, 0, &sc)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("received %d bytes, want %d", len(got), len(msg))
		}
		for _, class := range []string{"held-back segment", "duplicate", "FIN"} {
			if seen[class] == 0 {
				t.Errorf("no %s reached the receiver; the link was meant to deliver one", class)
			}
		}
	})

	t.Run("stopped-reader", func(t *testing.T) {
		k, _, srv, cli := delackRig(t, socket.Ethernet10(), nil)
		col := &trace.Collector{}
		k.StartTrace(col)
		msg := longPattern(rcvCap - rcvCap/4) // fits the window: no probe is due
		var got []byte
		var rc, sc *Conn
		recvAll(t, k, srv, 2*sim.Second, &got, &rc)
		sendAll(t, k, cli, msg, sim.Second, &sc)
		k.Spawn("watch", func(p *kernel.Proc) {
			p.SleepFor(sim.Second)
			if sc.sndUna != int64(len(msg)) {
				t.Errorf("sender's data acknowledged to %d of %d while the reader sleeps", sc.sndUna, len(msg))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("received %d bytes, want %d", len(got), len(msg))
		}
		if delayed := delacks(col, int64(len(msg))); delayed != 1 {
			t.Errorf("%d fast-timeout ACKs of offset %d, want 1", delayed, len(msg))
		}
		if sc.Retransmits() != 0 {
			t.Errorf("%d retransmissions while the reader slept", sc.Retransmits())
		}
	})
}

// delacks counts the stream.delack events col holds that acknowledge
// offset at, or all of them when at is negative.
func delacks(col *trace.Collector, at int64) int {
	n := 0
	for _, ev := range col.Events {
		if ev.Kind == trace.KindStreamDelack && (at < 0 || ev.Arg1 == at) {
			n++
		}
	}
	return n
}
