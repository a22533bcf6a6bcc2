package socket

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

func newK() *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 600 * sim.Second
	return kernel.New(cfg)
}

func TestDatagramRoundTrip(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, err := n.NewSocket(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.NewSocket(2000)
	if err != nil {
		t.Fatal(err)
	}
	a.Connect(2000)
	msg := []byte("hello datagram world")
	var got []byte
	k.Spawn("recv", func(p *kernel.Proc) {
		fd := p.InstallFile(b, kernel.ORdWr)
		buf := make([]byte, 100)
		rn, err := p.Read(fd, buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		got = append([]byte(nil), buf[:rn]...)
	})
	k.Spawn("send", func(p *kernel.Proc) {
		fd := p.InstallFile(a, kernel.ORdWr)
		if _, err := p.Write(fd, msg); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestDatagramBoundariesPreserved(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	var sizes []int
	k.Spawn("recv", func(p *kernel.Proc) {
		fd := p.InstallFile(b, kernel.ORdOnly)
		buf := make([]byte, 4096)
		for i := 0; i < 3; i++ {
			rn, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			sizes = append(sizes, rn)
		}
	})
	k.Spawn("send", func(p *kernel.Proc) {
		fd := p.InstallFile(a, kernel.OWrOnly)
		for _, sz := range []int{100, 900, 33} {
			if _, err := p.Write(fd, make([]byte, sz)); err != nil {
				t.Errorf("write %d: %v", sz, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 900 || sizes[2] != 33 {
		t.Fatalf("datagram sizes %v, want [100 900 33]", sizes)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	sawEOF := false
	k.Spawn("recv", func(p *kernel.Proc) {
		fd := p.InstallFile(b, kernel.ORdOnly)
		buf := make([]byte, 64)
		for {
			rn, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if rn == 0 {
				sawEOF = true
				return
			}
		}
	})
	k.Spawn("send", func(p *kernel.Proc) {
		fd := p.InstallFile(a, kernel.OWrOnly)
		_, _ = p.Write(fd, []byte("bye"))
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawEOF {
		t.Fatal("receiver never saw EOF after peer close")
	}
}

func TestLinkSerializationPacesTransfers(t *testing.T) {
	// 10 x 8KB over a 1.25MB/s Ethernet needs >= 64ms of serialization.
	k := newK()
	n := NewNet(k, Ethernet10())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	var elapsed sim.Duration
	k.Spawn("recv", func(p *kernel.Proc) {
		fd := p.InstallFile(b, kernel.ORdOnly)
		buf := make([]byte, 8192)
		for i := 0; i < 10; i++ {
			if _, err := p.Read(fd, buf); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	k.Spawn("send", func(p *kernel.Proc) {
		fd := p.InstallFile(a, kernel.OWrOnly)
		t0 := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := p.Write(fd, make([]byte, 8192)); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		elapsed = p.Now().Sub(t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 60*sim.Millisecond {
		t.Fatalf("10x8KB sent in %v; link not serializing", elapsed)
	}
}

func TestReceiveBufferOverflowDrops(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	if _, err := n.NewSocket(2); err != nil {
		t.Fatal(err)
	}
	a.Connect(2)
	k.Spawn("send", func(pr *kernel.Proc) {
		fd := pr.InstallFile(a, kernel.OWrOnly)
		for i := 0; i < 10; i++ { // 80KB into a 64KB rcv buffer, no reader
			_, _ = pr.Write(fd, make([]byte, 8192))
		}
		pr.SleepFor(100 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, dropped := n.Stats()
	if dropped == 0 {
		t.Fatal("no drops despite overflowing receive buffer")
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	if _, err := n.NewSocket(7); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewSocket(7); err != kernel.ErrExist {
		t.Fatalf("duplicate bind: %v, want ErrExist", err)
	}
}

func TestWriteWithoutPeerRejected(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(9)
	k.Spawn("w", func(p *kernel.Proc) {
		fd := p.InstallFile(a, kernel.OWrOnly)
		if _, err := p.Write(fd, []byte("x")); err != kernel.ErrInval {
			t.Errorf("unconnected write: %v, want ErrInval", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpliceSourceDeliversOnArrival(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	var deliveredAt sim.Time
	var deliveredLen int
	// Arm the splice-source read before any data exists.
	b.SpliceRead(8192, func(data []byte, blk *sim.Block, eof bool, err error) {
		k.Spares().Drop(blk)
		deliveredAt = k.Now()
		deliveredLen = len(data)
	})
	k.Spawn("send", func(p *kernel.Proc) {
		p.SleepFor(30 * sim.Millisecond)
		fd := p.InstallFile(a, kernel.OWrOnly)
		_, _ = p.Write(fd, make([]byte, 500))
		p.SleepFor(30 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredLen != 500 {
		t.Fatalf("delivered %d bytes", deliveredLen)
	}
	if deliveredAt < sim.Time(30*sim.Millisecond) {
		t.Fatalf("delivered before send at %v", deliveredAt)
	}
}

func TestSpliceSinkCompletionAfterSerialization(t *testing.T) {
	k := newK()
	n := NewNet(k, Ethernet10())
	a, _ := n.NewSocket(1)
	if _, err := n.NewSocket(2); err != nil {
		t.Fatal(err)
	}
	a.Connect(2)
	var doneAt sim.Time
	k.Spawn("idle", func(p *kernel.Proc) { p.SleepFor(sim.Second) })
	k.Engine().Schedule(0, "kick", func() {
		a.SpliceWrite(make([]byte, 12500), nil, func(err error) {
			if err != nil {
				t.Errorf("sink: %v", err)
			}
			doneAt = k.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 12500 bytes at 1.25MB/s = 10ms of serialization.
	if doneAt < sim.Time(9*sim.Millisecond) {
		t.Fatalf("sink completion at %v, want >= ~10ms", doneAt)
	}
}

// TestSpliceReadPollAndVectoredWiring walks the socket's use of the
// shared endpoint types: readiness as poll reports it, the
// one-read-at-a-time rule, cancellation, the nonblocking read, a parked
// read served by the receive interrupt, and one datagram scattered
// across an iovec by Readv.
func TestSpliceReadPollAndVectoredWiring(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	const inOut = kernel.PollIn | kernel.PollOut
	var log []string
	deliver := func(tag string) kernel.Deliver {
		return func(data []byte, blk *sim.Block, eof bool, err error) {
			log = append(log, fmt.Sprintf("%s:%q eof=%v err=%v", tag, data, eof, err))
			k.Spares().Drop(blk)
		}
	}

	if r := b.PollReady(inOut); r != kernel.PollOut {
		t.Errorf("idle socket polls %#x, want PollOut", r)
	}
	if nr, err := b.Read(k.IntrCtx(), make([]byte, 8), 0); nr != 0 || err != kernel.ErrWouldBlock {
		t.Errorf("nonblocking read with nothing queued = (%d, %v)", nr, err)
	}
	b.SpliceRead(64, deliver("a")) // parks
	b.SpliceRead(64, deliver("b")) // refused; a stays parked
	if !b.CancelSpliceRead() || b.CancelSpliceRead() {
		t.Error("CancelSpliceRead did not withdraw the parked read exactly once")
	}
	b.SpliceRead(3, deliver("c")) // parks; served by the receive interrupt, truncated to 3

	k.Spawn("peer", func(p *kernel.Proc) {
		ctx := p.Ctx()
		if _, err := a.Writev(ctx, [][]byte{[]byte("he"), []byte("llo")}, 0); err != nil {
			t.Errorf("writev: %v", err)
		}
		p.SleepFor(10 * sim.Millisecond) // c has taken "hel"; the rest of that datagram is gone
		if _, err := a.Write(ctx, []byte("world!"), 0); err != nil {
			t.Errorf("write: %v", err)
		}
		// On the wire, not yet arrived: the poller sleeps for the receive interrupt.
		fds := []kernel.PollFd{{FD: p.InstallFile(b, kernel.ORdWr), Events: kernel.PollIn}}
		if nready, err := p.Poll(fds, -1); nready != 1 || err != nil || fds[0].Revents != kernel.PollIn {
			t.Errorf("poll = (%d, %v) revents %#x, want readable", nready, err, fds[0].Revents)
		}
		iov := [][]byte{make([]byte, 2), make([]byte, 3)}
		if nr, err := b.Readv(ctx, iov, 0); nr != 5 || err != nil || string(iov[0])+string(iov[1]) != "world" {
			t.Errorf("readv = (%d, %v) %q %q, want one datagram cut to the vector's 5 bytes", nr, err, iov[0], iov[1])
		}
		b.SpliceRead(64, deliver("d")) // parks until a's EOF marker arrives
		if err := a.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
		p.SleepFor(10 * sim.Millisecond)
		if err := b.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
		if r := b.PollReady(inOut); r != kernel.PollIn|kernel.PollHup {
			t.Errorf("closed socket polls %#x, want PollIn|PollHup", r)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`b:"" eof=false err=operation would block`,
		`c:"hel" eof=false err=<nil>`,
		`d:"" eof=true err=<nil>`,
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deliveries:\n got %q\nwant %q", log, want)
	}
}

// TestDupAndReorderSites pins what the receive-side fault sites do to a
// numbered run of datagrams: dup delivers one twice, reorder holds one
// back a propagation period so the datagram behind it overtakes it.
func TestDupAndReorderSites(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 2, Match: kernel.MatchAny})
	k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), K: 3, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	var got []byte
	k.Spawn("tx", func(p *kernel.Proc) {
		for i := byte(1); i <= 4; i++ {
			pkt := a.NewPacket(1)
			head(pkt)[0] = i
			a.SendTo(2, pkt, nil) // back to back: all four are in flight together
		}
		p.SleepFor(10 * sim.Millisecond)
		_ = a.Close(p.Ctx())
	})
	k.Spawn("rx", func(p *kernel.Proc) {
		buf := make([]byte, 8)
		for {
			nr, err := b.Read(p.Ctx(), buf, 0)
			if nr == 0 || err != nil {
				return
			}
			got = append(got, buf[:nr]...)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 2, 4, 3}; !bytes.Equal(got, want) {
		t.Errorf("received %v, want %v", got, want)
	}
}
