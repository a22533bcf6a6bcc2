package stream

import (
	"slices"

	"kdp/internal/kernel"
)

// Invariant checker: NewTransport tracks each transport on its kernel
// (kernel.Kernel.Track), and each transport keeps its live connections
// in registration order, so the kernel's own CheckInvariants and
// CheckDrained reach every connection, and which violation is reported
// when several connections are damaged replays deterministically.
//
// Invariant catalog (stream):
//
//	stream-seq-order       sndUna <= sndNxt <= seqEnd; rcvNxt never
//	                       moves backward (no data reordering past the
//	                       cumulative-ack point)
//	stream-wnd-neg         advertised and peer windows never negative
//	stream-rcv-bound       the receive buffer never exceeds its
//	                       capacity by more than one segment (the
//	                       allowed probe overshoot)
//	stream-reasm-bound     reassembly holds only offsets in
//	                       (rcvNxt, rcvNxt+reasmLimit]
//	stream-retry-bound     consecutive retransmissions of one segment
//	                       never exceed maxRetries
//	stream-probe-bound     consecutive zero-window probes without the
//	                       window reopening never exceed maxRetries
//	stream-ghost-bound     retired-connection records are reaped by
//	                       their expiry callout: no ghost entry
//	                       outlives its deadline (the list cannot grow
//	                       with every connection ever retired)
//	stream-ghost-no-resurrect
//	                       a retired key never coexists with live
//	                       connection state: answering a late segment
//	                       out of the ghost table must not re-create a
//	                       connection (only a fresh SYN may, and
//	                       handleSYN deletes the ghost first)
//	stream-delack-bound    a connection that owes a delayed ACK is
//	                       queued on its transport, every queued
//	                       connection owes one, and while the queue is
//	                       non-empty the fast timeout is armed and due
//	                       within fastTicks (every in-order byte is
//	                       acknowledged within 200 ms of arriving)
//	stream-conn-leak       (CheckDrained) once a machine has run to
//	                       idle, every live connection is quiescent:
//	                       no unacknowledged or unadmitted send data,
//	                       no undelivered receive data, no parked
//	                       splice read, no half-finished handshake

// EnableInvariants is a no-op kept for the benchmark's probe, which
// toggles it around its checks: every transport is tracked on its
// kernel from NewTransport on, whatever the toggle says.
func EnableInvariants(bool) {}

// CheckInvariants is a no-op kept for the benchmark's probe: the
// kernel's own CheckInvariants already walks every transport it tracks.
func CheckInvariants() error { return nil }

// CheckInvariants verifies the transport's live connections, then its
// ghost table and delayed-ACK queue, returning the first violation
// found. It never sleeps.
func (t *Transport) CheckInvariants() error {
	for _, c := range t.live {
		if err := c.check(); err != nil {
			return err
		}
	}
	if err := t.checkGhosts(); err != nil {
		return err
	}
	return t.checkDelacks()
}

// checkDelacks verifies the delayed-ACK queue against its connections
// and its timer: the fast timeout that will send the queue is pending,
// and due no later than the next 200 ms boundary.
func (t *Transport) checkDelacks() error {
	if len(t.delacks) == 0 {
		return nil
	}
	for _, c := range t.delacks {
		if !c.delack || c.state == stateClosed {
			return kernel.Violation("stream-delack-bound",
				"port %d: %s queued for a delayed ACK it does not owe", t.port, c.label)
		}
	}
	if now := t.k.Ticks(); t.fast == (kernel.Callout{}) || t.fastDue <= now || t.fastDue-now > fastTicks {
		return kernel.Violation("stream-delack-bound",
			"port %d: %d delayed ACK(s) queued, fast timeout armed=%v due at tick %d, now %d",
			t.port, len(t.delacks), t.fast != (kernel.Callout{}), t.fastDue, now)
	}
	return nil
}

// checkGhosts verifies every retired-connection record is still inside
// its retention window (one tick of grace covers the checker running
// between the tick advancing and the callout for that tick firing) and
// that no retired key has been resurrected: a key in the ghost table
// with live connection state alongside it means a late segment grew a
// connection out of the reply path instead of going through handleSYN,
// which deletes the ghost before admitting a fresh incarnation.
func (t *Transport) checkGhosts() error {
	now := t.k.Ticks()
	for _, e := range t.ghosts {
		if now > e.expires+1 {
			return kernel.Violation("stream-ghost-bound",
				"port %d: ghost %#x expired at tick %d, still present at tick %d", t.port, e.key, e.expires, now)
		}
		if _, live := t.conns[e.key]; live {
			return kernel.Violation("stream-ghost-no-resurrect",
				"port %d: ghost %#x coexists with live connection state for the same key", t.port, e.key)
		}
	}
	return nil
}

// CheckDrained verifies that every connection still live once a
// machine has run to idle is quiescent — nothing unsent, unacked,
// undelivered, or parked. Retired (ghosted) and failed connections
// leave the list themselves.
func (t *Transport) CheckDrained() error {
	for _, c := range t.live {
		switch {
		case c.state == stateSynSent:
			return kernel.Violation("stream-conn-leak", "%s: handshake never completed", c.label)
		case c.snd.Queued() > 0:
			return kernel.Violation("stream-conn-leak", "%s: %d write(s) never admitted", c.label, c.snd.Queued())
		case c.snd.Len() > 0 || c.sndUna != c.sndNxt:
			return kernel.Violation("stream-conn-leak",
				"%s: unacknowledged send data: una=%d nxt=%d buffered=%d", c.label, c.sndUna, c.sndNxt, c.snd.Len())
		case c.finAt >= 0 && !c.finAcked:
			return kernel.Violation("stream-conn-leak", "%s: FIN at %d never acknowledged", c.label, c.finAt)
		case c.rcv.Len() > 0:
			return kernel.Violation("stream-conn-leak", "%s: %d received byte(s) never read", c.label, c.rcv.Len())
		case len(c.reasm) > 0:
			return kernel.Violation("stream-conn-leak", "%s: %d segment(s) stuck in reassembly", c.label, len(c.reasm))
		case c.rd.Parked():
			return kernel.Violation("stream-conn-leak", "%s: splice read still parked", c.label)
		}
	}
	return nil
}

func (c *Conn) check() error {
	if c.sndUna > c.sndNxt || c.sndNxt > c.seqEnd() {
		return kernel.Violation("stream-seq-order",
			"%s: una=%d nxt=%d end=%d", c.label, c.sndUna, c.sndNxt, c.seqEnd())
	}
	if c.rcvNxt < c.ckRcvNxt {
		return kernel.Violation("stream-seq-order",
			"%s: rcvNxt moved backward: %d -> %d", c.label, c.ckRcvNxt, c.rcvNxt)
	}
	c.ckRcvNxt = c.rcvNxt
	if c.peerWnd < 0 || c.advWnd < 0 {
		return kernel.Violation("stream-wnd-neg", "%s: peerWnd=%d advWnd=%d", c.label, c.peerWnd, c.advWnd)
	}
	if c.rcv.Len() > rcvCap+MaxSeg {
		return kernel.Violation("stream-rcv-bound",
			"%s: %d buffered bytes exceed cap %d + one segment", c.label, c.rcv.Len(), rcvCap)
	}
	for _, s := range c.reasm {
		if s.off <= c.rcvNxt || s.off > c.rcvNxt+reasmLimit {
			return kernel.Violation("stream-reasm-bound",
				"%s: reassembly offset %d outside (%d, %d]", c.label, s.off, c.rcvNxt, c.rcvNxt+reasmLimit)
		}
	}
	if c.retries > maxRetries {
		return kernel.Violation("stream-retry-bound", "%s: %d consecutive retries", c.label, c.retries)
	}
	if c.probes > maxRetries {
		return kernel.Violation("stream-probe-bound", "%s: %d consecutive zero-window probes", c.label, c.probes)
	}
	if c.delack && !slices.Contains(c.t.delacks, c) {
		return kernel.Violation("stream-delack-bound", "%s: owes a delayed ACK but is not queued on port %d", c.label, c.t.port)
	}
	return nil
}
