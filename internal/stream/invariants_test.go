package stream

import (
	"errors"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// checkRig is two transports with one established connection and one
// ghost on the server side, all tracked by their kernel.
type checkRig struct {
	srv, cli *Transport
	c        *Conn
	ghostKey uint64
}

func newCheckRig(t testing.TB) *checkRig {
	t.Helper()
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
	r := &checkRig{srv: srv, cli: cli, ghostKey: connKey(5001, 9)}
	r.c = newConn(srv, 5001, 1, stateEstablished)
	srv.conns[r.c.key()] = r.c
	srv.addGhost(r.ghostKey, 123)
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("invariants dirty before the fault: %v", err)
	}
	return r
}

// packet returns a packet as the net delivers one to the rig's server:
// a header span, then n payload bytes in blocks of the machine's spares.
func (r *checkRig) packet(n int) *socket.Packet {
	p := r.srv.sock.NewPacket(hdrBytes)
	for n > 0 {
		blk := r.srv.k.Spares().Get(kernel.FIFOBlock)
		m := min(n, len(blk.Bytes))
		p.Data = append(p.Data, sim.Span{Blk: blk, N: m})
		n -= m
	}
	return p
}

// TestCatalogTrips plants one hand-made fault per name in the invariant
// catalog and requires the same-named check to report it.
func TestCatalogTrips(t *testing.T) {
	faults := []struct {
		name  string
		plant func(r *checkRig)
	}{
		{"stream-seq-order", func(r *checkRig) { r.c.sndUna = r.c.sndNxt + 1 }},
		{"stream-wnd-neg", func(r *checkRig) { r.c.peerWnd = -1 }},
		{"stream-rcv-bound", func(r *checkRig) { r.c.rcv.Push(make([]byte, rcvCap+MaxSeg+1)) }},
		{"stream-reasm-bound", func(r *checkRig) { r.c.reasm = []reasmSeg{{off: r.c.rcvNxt, n: 1, pkt: r.packet(1)}} }},
		{"stream-retry-bound", func(r *checkRig) { r.c.retries = maxRetries + 1 }},
		{"stream-probe-bound", func(r *checkRig) { r.c.probes = maxRetries + 1 }},
		{"stream-ghost-bound", func(r *checkRig) { r.srv.ghost(r.ghostKey).expires = r.srv.k.Ticks() - 2 }},
		{"stream-ghost-no-resurrect", func(r *checkRig) { r.srv.conns[r.ghostKey] = r.c }},
		{"stream-delack-bound", func(r *checkRig) { r.c.delack = true }},                                             // owed, not queued
		{"stream-delack-bound", func(r *checkRig) { r.c.delack = true; r.srv.delacks = append(r.srv.delacks, r.c) }}, // never armed
		{"stream-delack-bound", func(r *checkRig) { r.srv.queueDelack(r.c); r.srv.fastDue += fastTicks }},            // due too late
		{"stream-delack-bound", func(r *checkRig) { r.srv.queueDelack(r.c); r.c.delack = false }},                    // queued, not owed
		{"stream-span-held", func(r *checkRig) { // a send buffer's block released under it
			blk := sim.NewBlock(64)
			r.c.snd.Share(blk, blk.Bytes[:10])
			blk.Drop()
			blk.Drop()
		}},
		{"stream-span-held", func(r *checkRig) { // a receive buffer's block released under it
			blk := sim.NewBlock(64)
			r.c.rcv.Share(blk, blk.Bytes[:10])
			blk.Drop()
			blk.Drop()
		}},
		{"stream-span-held", func(r *checkRig) { // a stashed packet's span past its block's end
			p := r.packet(10)
			p.Data[1].N = len(p.Data[1].Blk.Bytes) + 1
			r.c.reasm = []reasmSeg{{off: r.c.rcvNxt + 100, n: 10, pkt: p}}
		}},
		{"stream-span-held", func(r *checkRig) { // a stashed packet's block released under it
			p := r.packet(10)
			p.Data[0].Blk.Drop()
			r.c.reasm = []reasmSeg{{off: r.c.rcvNxt + 100, n: 10, pkt: p}}
		}},
		{"stream-conn-leak", func(r *checkRig) { r.c.rcv.Push(make([]byte, 1)) }},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			r := newCheckRig(t)
			fault.plant(r)
			r.srv.gen.Bump() // a planted write is a modification
			err := r.srv.k.CheckInvariants()
			if fault.name == "stream-conn-leak" { // the drain-time check
				if err != nil {
					t.Fatalf("CheckInvariants = %v, want nil: unread data is legal mid-run", err)
				}
				err = r.srv.k.CheckDrained()
			}
			if kernel.ViolationName(err) != fault.name {
				t.Fatalf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
		})
	}
}

// TestCheckAllocatesNothing: a passing pass over live connections, a
// stashed out-of-order segment, a queued delayed ACK and ghosts
// allocates nothing — it runs at every scheduling boundary of a simcheck
// machine.
func TestCheckAllocatesNothing(t *testing.T) {
	r := newCheckRig(t)
	r.c.reasm = []reasmSeg{{off: r.c.rcvNxt + 100, n: 1, pkt: r.packet(1)}}
	p := r.packet(MaxSeg + 1)
	r.c.share(p, 0)
	r.srv.sock.Recycle(p)
	r.c.snd.Push(make([]byte, 100))
	r.srv.queueDelack(r.c)
	r.cli.addGhost(connKey(80, 3), 7)
	if n := testing.AllocsPerRun(100, func() {
		if err := r.srv.k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CheckInvariants allocates %v times per passing pass, want 0", n)
	}
}

// TestAuditReportsUnbumpedWrite: with the audit on, a connection's retry
// count moved by hand without a bump is reported as the transport's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	r := newCheckRig(t)
	r.c.retries++
	var ae *kernel.AuditError
	if err := r.srv.k.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "stream" {
		t.Errorf("CheckInvariants = %v, want the audit to report stream", err)
	}
}

// BenchmarkCatalogWalk times one full walk of a transport's catalog with
// one live connection and one ghost, the generation bumped before each.
func BenchmarkCatalogWalk(b *testing.B) {
	r := newCheckRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.srv.gen.Bump()
		if err := r.srv.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
