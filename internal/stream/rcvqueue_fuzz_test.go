package stream

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/socket"
)

// streamByte is byte off of the sender's stream in FuzzRcvQueue, the
// pattern longPattern lays out.
func streamByte(off int64) byte { return byte(off) ^ byte(off>>8)*3 ^ byte(off>>16)*7 }

// largePacket is the smallest request the net serves from its list of
// payload-sized buffers, past its 256-byte header-sized ones.
const largePacket = 257

// FuzzRcvQueue drives one connection's receive path from a program of
// 3-byte ops against a flat reference: the stream's bytes from the
// reader's offset up to rcvNxt. An op delivers a data segment that
// starts at or before rcvNxt (a partial duplicate when before) or past
// it (for reassembly), of 1 to MaxSeg bytes, as the net does: in a
// packet buffer, recycled unless the connection keeps it. Or it reads
// (Read) or takes (a splice read's take) 1 to 2·MaxSeg bytes, which
// must be the reference's next bytes. Between ops it draws packet
// buffers off the net's free lists, scribbles on them and gives them
// back: a packet handed back while still queued reads back scribbled,
// and one handed back twice comes out twice at once. The catalog is checked after every op, and a final read must
// empty the queue. Then every payload-sized packet the connection kept
// must be back on its free list (acknowledgements draw header-sized
// buffers, so a kept one of those may be on the wire instead).
//
// `go test -fuzz=FuzzRcvQueue ./internal/stream` searches; plain
// `go test` replays testdata/fuzz/FuzzRcvQueue.
func FuzzRcvQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		k := newK()
		n := socket.NewNet(k, socket.Loopback())
		tr, _ := NewTransport(k, n, 80)
		c := newConn(tr, 5001, 1, stateEstablished)
		tr.conns[c.key()] = c
		ctx := k.IntrCtx()
		var read int64            // the reader's offset: the reference is [read, c.rcvNxt)
		known := map[*byte]bool{} // every buffer the test has had from the net
		kept := map[*byte]bool{}  // the payload-sized ones the connection kept

		deliver := func(seq int64, size int) {
			pkt := segment{typ: segDATA, connID: c.id, seq: seq, wnd: rcvCap}.encode(tr.sock.PacketBuf(hdrBytes + size))
			for i := range size {
				pkt[hdrBytes+i] = streamByte(seq + int64(i))
			}
			known[&pkt[0]] = true
			switch {
			case !tr.input(pkt, c.remote, false):
				tr.sock.Recycle(pkt)
			case len(pkt) >= largePacket:
				kept[&pkt[0]] = true
			}
		}
		check := func(what string, got []byte) {
			for i, b := range got {
				if want := streamByte(read + int64(i)); b != want {
					t.Fatalf("%s: byte %d of the stream is %#x, want %#x", what, read+int64(i), b, want)
				}
			}
			read += int64(len(got))
		}
		buf := make([]byte, 2*MaxSeg)
		for ; len(prog) >= 3; prog = prog[3:] {
			op, arg := prog[0], int(prog[1])<<8|int(prog[2])
			switch op % 4 {
			case 0: // at or before rcvNxt
				deliver(max(c.rcvNxt-int64(op>>2)*61, 0), 1+arg%MaxSeg)
			case 1: // past rcvNxt
				deliver(c.rcvNxt+1+int64(op>>2)*211, 1+arg%MaxSeg)
			case 2:
				m, err := c.Read(ctx, buf[:1+arg%len(buf)], 0)
				if err != nil && err != kernel.ErrWouldBlock {
					t.Fatalf("read: %v", err)
				}
				check("read", buf[:m])
			case 3:
				data, _ := c.take(1 + arg%len(buf))
				check("take", data)
			}
			if got, want := c.rcv.Len(), int(c.rcvNxt-read); got != want {
				t.Fatalf("%d bytes queued, want the %d in [%d, %d)", got, want, read, c.rcvNxt)
			}
			if err := k.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			scribbleFree(t, tr.sock, known)
		}
		for c.rcv.Len() > 0 {
			data, _ := c.take(len(buf))
			check("final take", data)
		}
		if c.rcvNxt != read || c.rcv.segs.Len() != 0 {
			t.Fatalf("read up to %d of %d; %d packets still queued", read, c.rcvNxt, c.rcv.segs.Len())
		}
		for _, q := range c.reasm {
			delete(kept, &q.pkt[0]) // past the last in-order byte: still stashed
		}
		for { // draw the payload-sized list dry: until a new buffer comes out
			b := tr.sock.PacketBuf(largePacket)
			if !known[&b[0]] {
				break
			}
			delete(kept, &b[0])
		}
		if len(kept) > 0 {
			t.Fatalf("%d packet(s) the connection kept never came back to the net", len(kept))
		}
	})
}

// scribbleFree draws buffers of both sizes off the net's free lists,
// overwrites them and gives them back, adding them to known. A buffer
// drawn twice fails the test.
func scribbleFree(t *testing.T, s *socket.Socket, known map[*byte]bool) {
	var drawn [][]byte
	seen := map[*byte]bool{}
	for _, size := range []int{hdrBytes, hdrBytes, hdrBytes, hdrBytes, largePacket, largePacket, largePacket, largePacket} {
		b := s.PacketBuf(size)
		p := &b[0]
		if seen[p] {
			t.Fatal("the free list handed out one packet buffer twice")
		}
		seen[p], known[p] = true, true
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
		drawn = append(drawn, b)
	}
	for _, b := range drawn {
		s.Recycle(b)
	}
}
