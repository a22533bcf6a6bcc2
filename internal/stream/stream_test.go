package stream

import (
	"bytes"
	"runtime"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/trace"
)

func newK() *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 3600 * sim.Second
	return kernel.New(cfg)
}

// pattern fills n deterministic bytes.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>8) ^ byte(i)*5 ^ seed
	}
	return b
}

// readToEOF drains fd through the read() path.
func readToEOF(t *testing.T, p *kernel.Proc, fd int) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := p.Read(fd, buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return out
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestStreamConnectTransferClose(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	srv, err := NewTransport(k, n, 80)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewTransport(k, n, 5001)
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(100_000, 7) // several windows' worth
	var got []byte
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
		got = readToEOF(t, p, fd)
		if err := p.Close(fd); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for off := 0; off < len(msg); off += 8192 {
			end := off + 8192
			if end > len(msg) {
				end = len(msg)
			}
			if _, err := p.Write(fd, msg[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("client close: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %d bytes, want %d (content mismatch: %v)", len(got), len(msg), !bytes.Equal(got, msg))
	}
	// Both sides finished both directions, so both connections retired
	// to ghosts and the maps hold no live state.
	if len(srv.conns) != 0 || len(cli.conns) != 0 {
		t.Fatalf("live connections remain: srv=%d cli=%d", len(srv.conns), len(cli.conns))
	}
}

func TestStreamConnectRefusedAndTimeout(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	cli, _ := NewTransport(k, n, 5001)
	_, _ = n.NewSocket(90) // bound, but not a listening transport
	k.Spawn("client", func(p *kernel.Proc) {
		if _, _, err := cli.Connect(p, 80); err != kernel.ErrConnRefused {
			t.Errorf("connect to unbound port: err=%v, want ErrConnRefused", err)
		}
		if _, _, err := cli.Connect(p, 90); err != kernel.ErrTimedOut {
			t.Errorf("connect to deaf port: err=%v, want ErrTimedOut", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEchoBothDirections(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	req := pattern(20_000, 3)
	var reply []byte
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data := readToEOF(t, p, fd)
		for i := range data {
			data[i] ^= 0xFF
		}
		if _, err := p.Write(fd, data); err != nil {
			t.Errorf("echo write: %v", err)
		}
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := p.Write(fd, req); err != nil {
			t.Errorf("write: %v", err)
		}
		// Half-close our direction; the read side stays open.
		f, _ := p.FD(fd)
		conn := f.Ops().(*Conn)
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		cfd := p.InstallFile(conn, kernel.ORdOnly)
		reply = readToEOF(t, p, cfd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), req...)
	for i := range want {
		want[i] ^= 0xFF
	}
	if !bytes.Equal(reply, want) {
		t.Fatalf("echo reply mismatch: got %d bytes, want %d", len(reply), len(want))
	}
}

// lossyNet returns a loopback net that loses every every-th data
// datagram (0: none) — a quiet permanent arm on the net's drop site.
func lossyNet(k *kernel.Kernel, every int) *socket.Net {
	n := socket.NewNet(k, socket.Loopback())
	if every > 0 {
		k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), Every: int64(every), Match: kernel.MatchAny, Count: -1, Quiet: true})
	}
	return n
}

// runLossyTransfer moves size bytes over a lossy link and reports
// the received data, total retransmissions, and the full event digest.
func runLossyTransfer(t *testing.T, size, dropEvery int) (got []byte, retx int64, digest uint64) {
	t.Helper()
	k := newK()
	dig := trace.NewDigester()
	k.StartTrace(dig)
	n := lossyNet(k, dropEvery)
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	msg := pattern(size, 9)
	var sender, receiver *Conn
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, c, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		receiver = c
		got = readToEOF(t, p, fd)
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, c, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sender = c
		for off := 0; off < len(msg); off += 8192 {
			end := off + 8192
			if end > len(msg) {
				end = len(msg)
			}
			if _, err := p.Write(fd, msg[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", len(got), len(msg))
	}
	return got, sender.Retransmits() + receiver.Retransmits(), dig.Sum()
}

func TestStreamTransferUnderLoss(t *testing.T) {
	_, retx, _ := runLossyTransfer(t, 200_000, 5)
	if retx == 0 {
		t.Fatal("every-5th-drop transfer completed without a single retransmission")
	}
}

func TestStreamLossDeterministicAcrossGOMAXPROCS(t *testing.T) {
	_, retx1, dig1 := runLossyTransfer(t, 120_000, 7)
	prev := runtime.GOMAXPROCS(1)
	_, retx2, dig2 := runLossyTransfer(t, 120_000, 7)
	runtime.GOMAXPROCS(prev)
	if retx1 != retx2 {
		t.Fatalf("retransmit counts differ across GOMAXPROCS: %d vs %d", retx1, retx2)
	}
	if dig1 != dig2 {
		t.Fatalf("event digests differ across GOMAXPROCS: %#x vs %#x", dig1, dig2)
	}
}

func TestStreamWindowStallAndProbe(t *testing.T) {
	k := newK()
	col := &trace.Collector{}
	k.StartTrace(col)
	n := socket.NewNet(k, socket.Loopback())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	// More data than rcvCap with a reader that drains slowly, forcing
	// the advertised window shut while the sender still has bytes.
	size := rcvCap * 3
	msg := pattern(size, 11)
	var got []byte
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 2048)
		for {
			rn, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if rn == 0 {
				break
			}
			got = append(got, buf[:rn]...)
			p.Compute(5 * sim.Millisecond) // slow consumer
		}
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := p.Write(fd, msg); err != nil {
			t.Errorf("write: %v", err)
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("transfer mismatch: got %d bytes, want %d", len(got), len(msg))
	}
	stalls, acks := 0, 0
	for _, ev := range col.Events {
		switch ev.Kind {
		case trace.KindStreamStall:
			stalls++
		case trace.KindStreamAck:
			acks++
		}
	}
	if stalls == 0 {
		t.Fatal("slow consumer never produced a stream.stall event")
	}
	if acks == 0 {
		t.Fatal("no stream.ack events observed")
	}
}

func TestStreamInvariantsCleanRun(t *testing.T) {
	k := newK()
	n := lossyNet(k, 6)
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	msg := pattern(90_000, 13)
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		readToEOF(t, p, fd)
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if _, err := p.Write(fd, msg); err != nil {
			t.Errorf("write: %v", err)
		}
		_ = p.Close(fd)
	})
	k.SetProbe(func() {
		if err := k.CheckInvariants(); err != nil {
			k.Abort(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
