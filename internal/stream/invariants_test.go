package stream

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/socket"
)

// checkRig is two transports with one established connection and one
// ghost on the server side, all tracked by their kernel.
type checkRig struct {
	srv, cli *Transport
	c        *Conn
	ghostKey uint64
}

func newCheckRig(t *testing.T) *checkRig {
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
		{"stream-reasm-bound", func(r *checkRig) { r.c.reasm = []reasmSeg{{off: r.c.rcvNxt}} }},
		{"stream-retry-bound", func(r *checkRig) { r.c.retries = maxRetries + 1 }},
		{"stream-probe-bound", func(r *checkRig) { r.c.probes = maxRetries + 1 }},
		{"stream-ghost-bound", func(r *checkRig) { r.srv.ghost(r.ghostKey).expires = r.srv.k.Ticks() - 2 }},
		{"stream-ghost-no-resurrect", func(r *checkRig) { r.srv.conns[r.ghostKey] = r.c }},
		{"stream-delack-bound", func(r *checkRig) { r.c.delack = true }},                                             // owed, not queued
		{"stream-delack-bound", func(r *checkRig) { r.c.delack = true; r.srv.delacks = append(r.srv.delacks, r.c) }}, // never armed
		{"stream-delack-bound", func(r *checkRig) { r.srv.queueDelack(r.c); r.srv.fastDue += fastTicks }},            // due too late
		{"stream-delack-bound", func(r *checkRig) { r.srv.queueDelack(r.c); r.c.delack = false }},                    // queued, not owed
		{"stream-conn-leak", func(r *checkRig) { r.c.rcv.Push([]byte{1}) }},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			r := newCheckRig(t)
			fault.plant(r)
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
	r.c.reasm = []reasmSeg{{off: r.c.rcvNxt + 100, data: []byte{1}}}
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
