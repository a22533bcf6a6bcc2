package stream

import (
	"encoding/binary"

	"kdp/internal/socket"
)

// Segment wire format. Every segment — control or data — carries the
// sender's cumulative acknowledgement and advertised receive window, so
// acknowledgements piggyback on data flowing the other way and a pure
// ACK is just a segment with no payload.
//
//	byte  0     type (SYN, SYNACK, DATA, ACK, FIN)
//	bytes 1-4   connection id (chosen by the initiator)
//	bytes 5-12  seq: byte offset of the payload (DATA) or of the FIN
//	bytes 13-20 ack: next byte offset expected from the peer
//	bytes 21-24 wnd: advertised receive window in bytes
//	bytes 25-   payload (DATA only)
//
// The header is the packet's first span and the payload the rest
// (socket.Packet), so a segment's payload is the send buffer's blocks,
// shared, and no copy of its bytes; a payload of a few bytes follows
// the header in its span instead.
//
// Sequence numbers are byte offsets from zero, as in TCP; SYN and
// SYNACK carry no sequence space, data starts at offset 0, and the FIN
// consumes one offset past the last data byte.
const (
	segSYN = iota + 1
	segSYNACK
	segDATA
	segACK
	segFIN
)

// hdrBytes is the fixed header length; it is charged on the wire like
// payload, standing in for the TCP/IP header overhead.
const hdrBytes = 25

type segment struct {
	typ    byte
	connID uint32
	seq    int64
	ack    int64
	wnd    int64
}

// encode writes the header into b, hdrBytes long, and returns b.
func (s segment) encode(b []byte) []byte {
	b[0] = s.typ
	binary.BigEndian.PutUint32(b[1:5], s.connID)
	binary.BigEndian.PutUint64(b[5:13], uint64(s.seq))
	binary.BigEndian.PutUint64(b[13:21], uint64(s.ack))
	binary.BigEndian.PutUint32(b[21:25], uint32(s.wnd))
	return b
}

// decodeSegment decodes the header at the front of p's first span; what
// follows it there is payload.
func decodeSegment(p *socket.Packet) (segment, bool) {
	if len(p.Data) == 0 {
		return segment{}, false
	}
	b := p.Data[0].Bytes()
	if len(b) < hdrBytes || b[0] < segSYN || b[0] > segFIN {
		return segment{}, false
	}
	return segment{
		typ:    b[0],
		connID: binary.BigEndian.Uint32(b[1:5]),
		seq:    int64(binary.BigEndian.Uint64(b[5:13])),
		ack:    int64(binary.BigEndian.Uint64(b[13:21])),
		wnd:    int64(binary.BigEndian.Uint32(b[21:25])),
	}, true
}
