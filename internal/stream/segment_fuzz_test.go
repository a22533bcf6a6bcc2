package stream

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment feeds arbitrary datagrams to the segment decoder, as
// a hostile or corrupted peer would. decodeSegment must never panic;
// whatever it accepts must have a known type and re-encode to the
// input's 25 header bytes exactly, and its payload must be the rest of
// the input in place, not a copy (the transport's input path relies on
// reading the packet buffer without copying it).
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
		seg, ok := decodeSegment(b)
		if !bytes.Equal(b, in) {
			t.Fatal("decodeSegment wrote to its input")
		}
		if !ok {
			return
		}
		if len(b) < hdrBytes || seg.typ < segSYN || seg.typ > segFIN {
			t.Fatalf("accepted a %d-byte datagram of type %d", len(b), seg.typ)
		}
		if hdr := seg.encode(make([]byte, hdrBytes)); !bytes.Equal(hdr, b[:hdrBytes]) {
			t.Fatalf("re-encoded header %x, want %x", hdr, b[:hdrBytes])
		}
		if len(seg.payload) != len(b)-hdrBytes {
			t.Fatalf("payload is %d bytes, want the %d past the header", len(seg.payload), len(b)-hdrBytes)
		}
		if len(seg.payload) > 0 && &seg.payload[0] != &b[hdrBytes] {
			t.Fatal("payload is a copy, not the datagram's bytes past the header")
		}
	})
}
