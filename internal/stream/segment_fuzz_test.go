package stream

import (
	"bytes"
	"testing"

	"kdp/internal/sim"
	"kdp/internal/socket"
)

// FuzzDecodeSegment feeds arbitrary first spans to the segment decoder,
// as a hostile or corrupted peer would, an empty input standing for a
// packet of no span. decodeSegment must never panic or write to its
// input; whatever it accepts must be at least hdrBytes long (a small
// payload follows the header in its span), of a known type, and its
// header must re-encode to the input's first hdrBytes exactly.
//
// `go test -fuzz=FuzzDecodeSegment ./internal/stream` searches; plain
// `go test` replays the seeds below and testdata/fuzz/FuzzDecodeSegment.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range []segment{
		{typ: segSYN, connID: 1, wnd: rcvCap},
		{typ: segDATA, connID: 7, seq: 8192, ack: 1, wnd: 24576},
		{typ: segACK, connID: 0xffffffff, ack: 1 << 40, wnd: 0},
		{typ: segFIN, connID: 3, seq: -1, ack: -1, wnd: 0xffffffff},
	} {
		f.Add(s.encode(make([]byte, hdrBytes)))
	}
	f.Add(append(segment{typ: segDATA, connID: 2, seq: 5}.encode(make([]byte, hdrBytes)), "payload"...))
	f.Add([]byte{segSYNACK})      // one byte short of everything
	f.Add(make([]byte, hdrBytes)) // type 0
	f.Fuzz(func(t *testing.T, b []byte) {
		in := bytes.Clone(b)
		p := &socket.Packet{}
		if len(b) > 0 {
			p.Data = []sim.Span{{Blk: &sim.Block{Bytes: b}, N: len(b)}}
		}
		seg, ok := decodeSegment(p)
		if !bytes.Equal(b, in) {
			t.Fatal("decodeSegment wrote to its input")
		}
		if !ok {
			return
		}
		if len(b) < hdrBytes || seg.typ < segSYN || seg.typ > segFIN {
			t.Fatalf("accepted a %d-byte header of type %d", len(b), seg.typ)
		}
		if hdr := seg.encode(make([]byte, hdrBytes)); !bytes.Equal(hdr, b[:hdrBytes]) {
			t.Fatalf("re-encoded header %x, want %x", hdr, b[:hdrBytes])
		}
	})
}
