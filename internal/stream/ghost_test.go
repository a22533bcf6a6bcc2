package stream

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// runConn opens one connection from cli to srv's port, moves a little
// data, and closes both ends cleanly.
func runConn(t *testing.T, k *kernel.Kernel, srv, cli *Transport, srvPort int) {
	t.Helper()
	k.Spawn("server", func(p *kernel.Proc) {
		if err := srv.Listen(p); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		readToEOF(t, p, fd)
		if err := p.Close(fd); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, srvPort)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := p.Write(fd, pattern(1000, 3)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("client close: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostEntriesExpire is the regression test for the unbounded ghost
// map: a retired connection's record used to live until its key was
// reused, which for one-shot port pairs was forever. Every ghost must
// now be reaped by its expiry callout.
func TestGhostEntriesExpire(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)

	runConn(t, k, srv, cli, 80)
	if srv.Ghosts()+cli.Ghosts() == 0 {
		t.Fatal("no ghost entries after a clean close; nothing to test")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("fresh ghosts flagged: %v", err)
	}

	// Sleep past the retention window; the expiry callouts must reap
	// every entry.
	k.Spawn("wait", func(p *kernel.Proc) {
		p.SleepFor(sim.Duration(ghostTTL()+5) * 10 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Ghosts() + cli.Ghosts(); got != 0 {
		t.Errorf("%d ghost entr(ies) outlived the retention window", got)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Errorf("invariants after expiry: %v", err)
	}
}

// TestGhostAnswersLateSegmentWithoutResurrecting pins the ghost-table
// reply path: a data or FIN segment arriving late for a retired key is
// answered with the recorded final cumulative ack and nothing more — no
// connection state is re-created, the entry's expiry clock is not
// reset (the reaping deadline set at retirement stands), and a pure
// ACK draws no reply at all.
func TestGhostAnswersLateSegmentWithoutResurrecting(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	tr, err := NewTransport(k, n, 80)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := n.NewSocket(6001)
	if err != nil {
		t.Fatal(err)
	}
	var replies []segment
	peer.SetHandler(func(p *socket.Packet, from int, eof bool) bool {
		if eof {
			return false
		}
		if s, ok := decodeSegment(p); ok {
			replies = append(replies, s)
		}
		return false
	})

	const id = 7
	key := connKey(6001, id)
	tr.addGhost(key, 777)
	e0 := *tr.ghost(key)
	conns0 := len(tr.conns)

	k.Spawn("drive", func(p *kernel.Proc) {
		// Partway into the retention window a retransmitted FIN and a
		// stray data segment arrive for the retired key.
		p.SleepFor(sim.Duration(ghostTTL()/2) * 10 * sim.Millisecond)
		for _, typ := range []byte{segFIN, segDATA} {
			pkt := tr.sock.NewPacket(hdrBytes)
			segment{typ: typ, connID: id, seq: 777}.encode(pkt.Data[0].Bytes())
			tr.input(pkt, 6001, false)
		}
		p.SleepFor(200 * sim.Millisecond) // let the replies cross the link

		if len(replies) != 2 {
			t.Errorf("peer received %d repl(ies), want 2", len(replies))
			return
		}
		for i, r := range replies {
			if r.typ != segACK || r.connID != id || r.ack != 777 {
				t.Errorf("reply %d = type %d connID %d ack %d, want ACK id=%d ack=777",
					i, r.typ, r.connID, r.ack, id)
			}
		}
		e := tr.ghost(key)
		if e == nil {
			t.Error("ghost entry vanished before its deadline")
			return
		}
		if *e != e0 {
			t.Errorf("late segment perturbed the ghost entry: %+v, want %+v (expiry clock must not reset)", *e, e0)
		}
		if len(tr.conns) != conns0 {
			t.Errorf("late segment resurrected connection state: %d conn(s), want %d", len(tr.conns), conns0)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Errorf("invariants after late segments: %v", err)
		}

		// A pure ACK for a retired key is dropped silently.
		ack := tr.sock.NewPacket(hdrBytes)
		segment{typ: segACK, connID: id}.encode(ack.Data[0].Bytes())
		tr.input(ack, 6001, false)
		p.SleepFor(200 * sim.Millisecond)
		if len(replies) != 2 {
			t.Errorf("late ACK drew %d extra repl(ies), want silence", len(replies)-2)
		}

		// The deadline set at retirement stands: the entry is reaped on
		// that schedule, not ghostTTL after the late traffic.
		p.SleepFor(sim.Duration(ghostTTL()/2+5) * 10 * sim.Millisecond)
		if tr.Ghosts() != 0 {
			t.Errorf("%d ghost entr(ies) outlived the original deadline", tr.Ghosts())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostReRetireSurvivesStaleCallout pins the generation guard on
// the expiry callout: a key whose ghost is deleted by reuse (what
// handleSYN does when a fresh incarnation's SYN arrives) and then
// re-retired must not be reaped by the FIRST retirement's still-pending
// callout — only by its own.
func TestGhostReRetireSurvivesStaleCallout(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	tr, err := NewTransport(k, n, 80)
	if err != nil {
		t.Fatal(err)
	}
	const key = 42
	half := sim.Duration(ghostTTL()/2) * 10 * sim.Millisecond
	tr.addGhost(key, 100)
	k.Spawn("drive", func(p *kernel.Proc) {
		p.SleepFor(half)
		tr.dropGhost(key) // key reuse: a new SYN clears the entry
		tr.addGhost(key, 200)
		// Past the first callout's deadline, inside the second's window.
		p.SleepFor(half + 100*sim.Millisecond)
		e := tr.ghost(key)
		if e == nil {
			t.Error("stale expiry callout reaped the re-retired ghost early")
		} else if e.final != 200 {
			t.Errorf("ghost holds final ack %d, want the re-retirement's 200", e.final)
		}
		// And past the second deadline the entry is gone.
		p.SleepFor(half + 100*sim.Millisecond)
		if tr.Ghosts() != 0 {
			t.Errorf("%d ghost entr(ies) outlived the retention window", tr.Ghosts())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
