package stream

import (
	"bytes"
	"runtime"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// longPattern fills n bytes that do not repeat within 16 MB, so bytes
// that arrive at the wrong offset never pass for the right ones.
func longPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) ^ byte(i>>8)*3 ^ byte(i>>16)*7
	}
	return b
}

// TestStreamMegabyteOverLossyReorderingLink moves 1 MB across a link
// that drops every 7th arrival and holds back every 11th, in writes of
// every kind — short, vectored, larger than the send buffer — read back
// through an odd-sized buffer. Every retransmission is cut from a send
// window that has slid many times since the bytes were admitted, every
// held-back segment goes through reassembly into a receive window that
// has, and the invariants are checked at every scheduling boundary.
func TestStreamMegabyteOverLossyReorderingLink(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), Every: 7, Match: kernel.MatchAny, Count: -1, Quiet: true})
	reorder := k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), Every: 11, Match: kernel.MatchAny, Count: -1, Quiet: true})
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	msg := longPattern(1 << 20)
	var got []byte
	var sender *Conn
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 5000)
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
		}
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, c, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sender = c
		sizes := []int{MaxSeg, 3000, sndCap + 6000, 1, 20000}
		for off, i := 0, 0; off < len(msg); i++ {
			chunk := msg[off:min(off+sizes[i%len(sizes)], len(msg))]
			off += len(chunk)
			if i%2 == 1 { // three iovecs, gathered into one admission
				a, b := len(chunk)/3, 2*len(chunk)/3
				_, err = p.Writev(fd, [][]byte{chunk[:a], chunk[a:b], chunk[b:]})
			} else {
				_, err = p.Write(fd, chunk)
			}
			if err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
		if err := p.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	k.SetProbe(func() {
		if err := k.CheckInvariants(); err != nil {
			k.Abort(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		at := 0
		for at < len(got) && at < len(msg) && got[at] == msg[at] {
			at++
		}
		t.Fatalf("received %d bytes, want %d; first difference at offset %d", len(got), len(msg), at)
	}
	if sender.Retransmits() == 0 || reorder.Fired() == 0 {
		t.Fatalf("%d retransmissions, %d reorderings: the link was meant to cause both", sender.Retransmits(), reorder.Fired())
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// transferMeasured moves size bytes from a client to a server over
// 10 Mb Ethernet in 8 KB writes and reads, checking them as they
// arrive, and returns what the runtime allocated meanwhile, in bytes and
// in objects. A 128 KB warm-up goes first, so both windows and the
// kernel's callout and event records have reached their working size
// before the count starts; the net's queues, small packet buffers and
// free lists are sized at construction (socket.netRecords). A lossy
// link drops, duplicates and holds back arrivals at fixed intervals.
func transferMeasured(tb testing.TB, size int, lossy bool) (allocated, objects uint64) {
	k := newK()
	n := socket.NewNet(k, socket.Ethernet10())
	var arms []*kernel.FaultArm
	if lossy {
		arm := func(site kernel.FaultSite, every int64) {
			arms = append(arms, k.Faults().Arm(kernel.FaultArm{Site: site, Every: every, Match: kernel.MatchAny, Count: -1, Quiet: true}))
		}
		arm(n.DropSite(), 13)
		arm(n.DupSite(), 7)
		arm(n.ReorderSite(), 5)
	}
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	const warm = 128 << 10
	msg := longPattern(warm + size)
	var before, after runtime.MemStats
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, _, err := srv.Accept(p)
		if err != nil {
			tb.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 8192)
		for off := 0; off < len(msg); {
			rn, err := p.Read(fd, buf)
			if err != nil || rn == 0 || !bytes.Equal(buf[:rn], msg[off:off+rn]) {
				tb.Errorf("read at offset %d: %d bytes, err %v, content equal %v", off, rn, err, err == nil && rn > 0)
				return
			}
			off += rn
		}
		runtime.ReadMemStats(&after)
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, 80)
		if err != nil {
			tb.Errorf("connect: %v", err)
			return
		}
		for off := 0; off < len(msg); off += 8192 {
			if off == warm {
				p.SleepFor(500 * sim.Millisecond) // the warm-up has been read by now
				runtime.ReadMemStats(&before)
			}
			if _, err := p.Write(fd, msg[off:off+8192]); err != nil {
				tb.Errorf("write: %v", err)
				return
			}
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, a := range arms {
		if a.Fired() == 0 {
			tb.Errorf("%s never fired: the link was meant to be lossy", a.Site)
		}
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestStreamTransferAllocBudget: a megabyte through write, the send
// window, the wire, the receive window and read — some 130 data segments
// and their acknowledgements, window updates and retransmission timers —
// allocates nothing once the connection is warm: payload moves between
// buffers the connection and the net own, and every event, timer and
// packet reuses a record. The count is the whole runtime's, so a few
// objects are allowed for what the test binary does in the background
// (it reads 0 run alone, and 1 or 2 now and then under the race
// detector); one allocation per segment would read 128 or more. A pool
// that reaches a new high-water mark inside the measured megabyte reads
// as an allocation too: the net's records are sized at construction
// for that reason. The lossy run holds reassembly's kept packets and the
// receive buffer's shared blocks to the same budget through duplicates,
// reassembly and retransmissions: a packet or block never handed back
// would read as allocation, one handed back twice as wrong bytes.
func TestStreamTransferAllocBudget(t *testing.T) {
	const payload = 1 << 20
	for _, lossy := range []bool{false, true} {
		if bytes, objects := transferMeasured(t, payload, lossy); objects > payload/MaxSeg/16 {
			t.Fatalf("a warm %d-byte transfer (lossy %v) allocated %d objects (%d bytes), want none per segment", payload, lossy, objects, bytes)
		}
	}
}

// BenchmarkStreamTransfer reports host ns, bytes and allocations per
// simulated megabyte through one connection, set-up included: written
// by a process (write, with a 128 KB warm-up), and spliced from a file
// (splice, the file's writes and the machine's build included).
func BenchmarkStreamTransfer(b *testing.B) {
	b.Run("write", func(b *testing.B) {
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = transferMeasured(b, 1<<20, false)
		}
	})
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spliceTransfer(b, 1<<20)
		}
	})
}
