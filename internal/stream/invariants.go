package stream

import (
	"fmt"
	"sort"
)

// Invariant checker for the simcheck harness, mirroring the splice
// one: a registry of live connections is maintained only while
// EnableInvariants(true) is in effect, so production runs pay nothing.
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
//	                       outlives its deadline (the map cannot grow
//	                       with every connection ever retired)
//	stream-ghost-no-resurrect
//	                       a retired key never coexists with live
//	                       connection state: answering a late segment
//	                       out of the ghost table must not re-create a
//	                       connection (only a fresh SYN may, and
//	                       handleSYN deletes the ghost first)
//	stream-conn-leak       (CheckDrained) once a machine has run to
//	                       idle, every live connection is quiescent:
//	                       no unacknowledged or unadmitted send data,
//	                       no undelivered receive data, no parked
//	                       splice read, no half-finished handshake
var (
	invariantsOn   bool
	liveConns      map[*Conn]struct{}
	liveTransports map[*Transport]struct{}
)

// EnableInvariants switches connection tracking on or off. Not safe to
// toggle while a machine is running.
func EnableInvariants(on bool) {
	invariantsOn = on
	if on {
		liveConns = make(map[*Conn]struct{})
		liveTransports = make(map[*Transport]struct{})
	} else {
		liveConns = nil
		liveTransports = nil
	}
}

func registerTransport(t *Transport) {
	if invariantsOn {
		liveTransports[t] = struct{}{}
	}
}

func registerConn(c *Conn) {
	if invariantsOn {
		liveConns[c] = struct{}{}
	}
}

func unregisterConn(c *Conn) {
	if invariantsOn {
		delete(liveConns, c)
	}
}

func violation(name, label, format string, args ...any) error {
	return fmt.Errorf("invariant %s violated on %s: %s", name, label, fmt.Sprintf(format, args...))
}

// sortedLive returns the registered connections in label order, so
// checker errors are deterministic.
func sortedLive() []*Conn {
	conns := make([]*Conn, 0, len(liveConns))
	for c := range liveConns {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i].label < conns[j].label })
	return conns
}

// CheckInvariants verifies every live connection, returning the first
// violation found (nil when consistent, or when tracking is disabled).
// It never sleeps.
func CheckInvariants() error {
	for _, c := range sortedLive() {
		if err := c.check(); err != nil {
			return err
		}
	}
	for _, t := range sortedTransports() {
		if err := t.checkGhosts(); err != nil {
			return err
		}
	}
	return nil
}

func sortedTransports() []*Transport {
	ts := make([]*Transport, 0, len(liveTransports))
	for t := range liveTransports {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].port < ts[j].port })
	return ts
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
	keys := make([]uint64, 0, len(t.ghosts))
	for key := range t.ghosts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		if e := t.ghosts[key]; now > e.expires+1 {
			return violation("stream-ghost-bound", fmt.Sprintf("port %d", t.port),
				"ghost %#x expired at tick %d, still present at tick %d", key, e.expires, now)
		}
		if _, live := t.conns[key]; live {
			return violation("stream-ghost-no-resurrect", fmt.Sprintf("port %d", t.port),
				"ghost %#x coexists with live connection state for the same key", key)
		}
	}
	return nil
}

// CheckDrained verifies that every connection still registered once a
// machine has run to idle is quiescent — nothing unsent, unacked,
// undelivered, or parked. Retired (ghosted) and failed connections
// unregister themselves.
func CheckDrained() error {
	for _, c := range sortedLive() {
		switch {
		case c.state == stateSynSent:
			return violation("stream-conn-leak", c.label, "handshake never completed")
		case c.snd.Queued() > 0:
			return violation("stream-conn-leak", c.label, "%d write(s) never admitted", c.snd.Queued())
		case len(c.snd.Buf) > 0 || c.sndUna != c.sndNxt:
			return violation("stream-conn-leak", c.label,
				"unacknowledged send data: una=%d nxt=%d buffered=%d", c.sndUna, c.sndNxt, len(c.snd.Buf))
		case c.finAt >= 0 && !c.finAcked:
			return violation("stream-conn-leak", c.label, "FIN at %d never acknowledged", c.finAt)
		case len(c.rcvBuf) > 0:
			return violation("stream-conn-leak", c.label, "%d received byte(s) never read", len(c.rcvBuf))
		case len(c.reasm) > 0:
			return violation("stream-conn-leak", c.label, "%d segment(s) stuck in reassembly", len(c.reasm))
		case c.rd.Parked():
			return violation("stream-conn-leak", c.label, "splice read still parked")
		}
	}
	return nil
}

func (c *Conn) check() error {
	if c.sndUna > c.sndNxt || c.sndNxt > c.seqEnd() {
		return violation("stream-seq-order", c.label,
			"una=%d nxt=%d end=%d", c.sndUna, c.sndNxt, c.seqEnd())
	}
	if c.rcvNxt < c.ckRcvNxt {
		return violation("stream-seq-order", c.label,
			"rcvNxt moved backward: %d -> %d", c.ckRcvNxt, c.rcvNxt)
	}
	c.ckRcvNxt = c.rcvNxt
	if c.peerWnd < 0 || c.advWnd < 0 {
		return violation("stream-wnd-neg", c.label, "peerWnd=%d advWnd=%d", c.peerWnd, c.advWnd)
	}
	if len(c.rcvBuf) > rcvCap+MaxSeg {
		return violation("stream-rcv-bound", c.label,
			"%d buffered bytes exceed cap %d + one segment", len(c.rcvBuf), rcvCap)
	}
	for k := range c.reasm {
		if k <= c.rcvNxt || k > c.rcvNxt+reasmLimit {
			return violation("stream-reasm-bound", c.label,
				"reassembly offset %d outside (%d, %d]", k, c.rcvNxt, c.rcvNxt+reasmLimit)
		}
	}
	if c.retries > maxRetries {
		return violation("stream-retry-bound", c.label, "%d consecutive retries", c.retries)
	}
	if c.probes > maxRetries {
		return violation("stream-probe-bound", c.label, "%d consecutive zero-window probes", c.probes)
	}
	return nil
}
