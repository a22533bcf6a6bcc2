package stream

import (
	"kdp/internal/kernel"
	"kdp/internal/socket"
)

// rcvQueue is a connection's receive buffer: the packets the transport
// kept (socket.SetHandler), in sequence order, each holding the part of
// its payload not yet read, header buffer first. A read is the one copy
// of the bytes: it copies out of the packets, drops each span it
// empties and hands back each packet it empties; nothing copies the
// bytes on their way in.
type rcvQueue struct {
	pkts kernel.Queue[*socket.Packet]
	n    int // unread bytes
}

// Len returns the number of unread bytes.
func (q *rcvQueue) Len() int { return q.n }

// push appends the payload of the kept packet p past its first skip
// bytes, which it drops with the header; something must remain.
func (q *rcvQueue) push(p *socket.Packet, skip int, t *Transport) {
	p.Trim(hdrBytes+skip, t.k.Spares())
	q.pkts.Push(p)
	q.n += p.Len()
}

// read moves the oldest min(len(dst), Len()) bytes into dst, recycles
// through t's socket each packet it empties, and returns the count.
func (q *rcvQueue) read(dst []byte, t *Transport) int {
	n := 0
	for n < len(dst) && q.pkts.Len() > 0 {
		p := *q.pkts.Front()
		src := p.Hdr // a small payload, or none
		if len(src) == 0 {
			src = p.Data[0].Bytes()
		}
		m := copy(dst[n:], src)
		n += m
		if p.Trim(m, t.k.Spares()); p.Len() == 0 {
			t.sock.Recycle(q.pkts.Pop())
		}
	}
	q.n -= n
	return n
}
