package socket

import (
	"bytes"
	"runtime"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// sendvWorkload runs a fixed vectored-send workload over a lossy link
// and returns (delivered datagrams, dropped count, trace digest). Nine
// datagrams are sent, each gathered from a three-slice iovec; with
// an every-3rd drop arm exactly every third DATAGRAM must be lost — the loss
// counter ticks per packet on the wire, never per iovec slice (which
// would drop every datagram, since each carries three).
func sendvWorkload(t *testing.T) (got [][]byte, dropped int64, digest uint64) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := kernel.New(cfg)
	dig := trace.NewDigester()
	k.StartTrace(dig)
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), Every: 3, Match: kernel.MatchAny, Count: -1, Quiet: true})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)

	const msgs = 9
	k.Spawn("tx", func(pr *kernel.Proc) {
		for i := 0; i < msgs; i++ {
			iovs := [][]byte{
				{byte(i), 0xAA},
				{0xBB, 0xCC, 0xDD},
				{0xEE},
			}
			if _, err := a.Writev(pr.Ctx(), iovs, 0); err != nil {
				t.Errorf("sendv %d: %v", i, err)
			}
		}
		pr.SleepFor(time20ms())
		if err := a.Close(pr.Ctx()); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	k.Spawn("rx", func(pr *kernel.Proc) {
		buf := make([]byte, 64)
		for {
			nn, err := b.Read(pr.Ctx(), buf, 0)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if nn == 0 {
				return
			}
			got = append(got, append([]byte(nil), buf[:nn]...))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, dropped = n.Stats()
	return got, dropped, dig.Sum()
}

func time20ms() sim.Duration { return 20 * sim.Millisecond }

// TestSendvDropCountsPerDatagram pins the loss accounting of vectored
// sends: each Writev emits one datagram, so an every-3rd drop arm over nine
// three-slice sends loses exactly three messages — the 3rd, 6th and
// 9th — and every survivor arrives gathered and intact.
func TestSendvDropCountsPerDatagram(t *testing.T) {
	got, dropped, _ := sendvWorkload(t)
	if dropped != 3 {
		t.Fatalf("dropped = %d datagrams of 9, want 3 (per-datagram, not per-iovec)", dropped)
	}
	if len(got) != 6 {
		t.Fatalf("delivered = %d datagrams, want 6", len(got))
	}
	// Survivors are the non-multiples of three, in order, each the
	// full gathered payload.
	wantIdx := []byte{0, 1, 3, 4, 6, 7}
	for i, msg := range got {
		want := []byte{wantIdx[i], 0xAA, 0xBB, 0xCC, 0xDD, 0xEE}
		if !bytes.Equal(msg, want) {
			t.Fatalf("datagram %d = %x, want %x", i, msg, want)
		}
	}
}

// TestSendvDropDeterministicAcrossGOMAXPROCS pins that the per-datagram
// loss pattern — and the whole traced run — is a pure function of the
// workload, independent of host parallelism.
func TestSendvDropDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var digests [2]uint64
	var drops [2]int64
	for i, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		_, dropped, digest := sendvWorkload(t)
		digests[i], drops[i] = digest, dropped
	}
	if digests[0] != digests[1] {
		t.Errorf("trace digest differs across GOMAXPROCS: %016x (1) != %016x (8)",
			digests[0], digests[1])
	}
	if drops[0] != drops[1] {
		t.Errorf("drop count differs across GOMAXPROCS: %d != %d", drops[0], drops[1])
	}
}
