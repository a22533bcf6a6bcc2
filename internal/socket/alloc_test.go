package socket

import (
	"testing"

	"kdp/internal/kernel"
)

// datagramRig is the benchmark's socket.probe.datagram_ns: a process
// writes 1 KB datagrams to a connected socket and another reads them.
// exchange moves one datagram end to end and returns once it is read.
func datagramRig(tb testing.TB, body func(exchange func())) {
	k := kernel.New(kernel.DefaultConfig())
	net := NewNet(k, Loopback())
	tx, _ := net.NewSocket(1)
	rx, _ := net.NewSocket(2)
	if err := tx.Connect(2); err != nil {
		tb.Fatal(err)
	}
	stop, got := false, 0
	k.Spawn("rx", func(p *kernel.Proc) {
		msg := make([]byte, 1024)
		for !stop {
			if n, err := rx.Read(p.Ctx(), msg, 0); n != len(msg) || err != nil {
				tb.Errorf("Read = (%d, %v)", n, err)
				return
			}
			got++
			k.Wakeup(&got)
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		msg := make([]byte, 1024)
		sent := 0
		body(func() {
			if _, err := tx.Write(p.Ctx(), msg, 0); err != nil {
				tb.Error(err)
			}
			for sent++; got < sent; {
				_ = p.Sleep(&got, kernel.PSOCK)
			}
		})
		stop = true
		_, _ = tx.Write(p.Ctx(), msg, 0) // lets the reader see stop
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestDatagramAllocatesNothing: with the packet buffer, the flight
// record and both processes' wait state recycled, a datagram crosses the
// net — write, link, propagation, receive interrupt, read — without
// allocating.
func TestDatagramAllocatesNothing(t *testing.T) {
	allocs := -1.0
	datagramRig(t, func(exchange func()) {
		exchange() // warm-up
		allocs = testing.AllocsPerRun(100, exchange)
	})
	if allocs != 0 {
		t.Fatalf("one datagram allocated %.1f times, want 0", allocs)
	}
}

func BenchmarkDatagram(b *testing.B) {
	b.ReportAllocs()
	datagramRig(b, func(exchange func()) {
		exchange()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange()
		}
	})
}
