package stream

import (
	"kdp/internal/kernel"
	"kdp/internal/socket"
)

// rcvQueue is a connection's receive buffer: the packets the transport
// kept (socket.SetHandler), in sequence order, each with the part of its
// payload not yet read. A read copies out of the packets themselves and
// hands back each one it empties; nothing copies the bytes on their way
// in.
type rcvQueue struct {
	segs kernel.Queue[rcvSeg]
	n    int // unread bytes
}

// rcvSeg is one kept packet: the buffer as the net lent it, to give
// back, and the window of its payload still to read.
type rcvSeg struct {
	pkt, data []byte
}

// Len returns the number of unread bytes.
func (q *rcvQueue) Len() int { return q.n }

// push appends data, a non-empty window of the packet pkt.
func (q *rcvQueue) push(pkt, data []byte) {
	q.segs.Push(rcvSeg{pkt, data})
	q.n += len(data)
}

// read moves the oldest min(len(dst), Len()) bytes into dst, recycles
// through s each packet it empties, and returns the count.
func (q *rcvQueue) read(dst []byte, s *socket.Socket) int {
	n := 0
	for n < len(dst) && q.segs.Len() > 0 {
		f := q.segs.Front()
		m := copy(dst[n:], f.data)
		n += m
		if f.data = f.data[m:]; len(f.data) == 0 {
			s.Recycle(q.segs.Pop().pkt)
		}
	}
	q.n -= n
	return n
}
