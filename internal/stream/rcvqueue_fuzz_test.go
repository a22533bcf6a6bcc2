package stream

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// streamByte is byte off of the sender's stream in FuzzRcvQueue, the
// pattern longPattern lays out.
func streamByte(off int64) byte { return byte(off) ^ byte(off>>8)*3 ^ byte(off>>16)*7 }

// FuzzRcvQueue drives one connection's receive path from a program of
// 3-byte ops against a flat reference: the stream's bytes from the
// reader's offset up to rcvNxt. An op delivers a data segment that
// starts at or before rcvNxt (a partial duplicate when before) or past
// it (for reassembly), of 1 to MaxSeg bytes, as the net does: in a
// packet whose payload is a chain of one to three spans after its
// header's, each placed somewhere inside a block of the machine's
// spares, or, one delivery in eight, of at most 231 bytes extending the
// header's span, as sendSeg sends a small one; recycled unless the
// connection keeps it. Or it reads (Read) or takes (a splice read's
// take) 1 to 2·MaxSeg bytes, which must be the reference's next bytes.
// Between ops it draws packet records with their header blocks and
// spare blocks, scribbles on them and gives them back: a block let go
// of while the receive buffer still shares it reads back scribbled, and
// a packet handed back while still stashed comes out of the free list
// while the connection holds it. The catalog is checked after every op,
// and a final read must empty the buffer. Once the link has carried off
// the acknowledgements (to a port nobody binds, so they are recycled on
// arrival), every packet the connection kept must be back on the net's
// free list, and every block back on the spares, unreferenced.
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
		var read int64                    // the reader's offset: the reference is [read, c.rcvNxt)
		kept := map[*socket.Packet]bool{} // the packets the connection kept
		seen := map[*socket.Packet]bool{} // every packet delivered
		blocks := map[*sim.Block]bool{}   // every block a payload used

		deliver := func(seq int64, size, cut int) {
			p := tr.sock.NewPacket(hdrBytes)
			seen[p] = true
			delete(kept, p) // handed back and drawn again
			h := &p.Data[0]
			blocks[h.Blk] = true
			segment{typ: segDATA, connID: c.id, seq: seq, wnd: rcvCap}.encode(h.Bytes())
			if small := len(h.Blk.Bytes) - hdrBytes; cut>>13 == 0 {
				size = 1 + size%small
				h.N += size
				for i := range size {
					h.Bytes()[hdrBytes+i] = streamByte(seq + int64(i))
				}
			}
			for at := p.Len() - hdrBytes; at < size; cut /= 3 {
				blk := k.Spares().Get(kernel.FIFOBlock)
				blocks[blk] = true
				off := cut % 512
				m := min(size-at, len(blk.Bytes)-off)
				if cut%3 != 0 && m > 1 {
					m -= m / (1 + cut%3) // more spans than one, now and then
				}
				for i := range m {
					blk.Bytes[off+i] = streamByte(seq + int64(at+i))
				}
				p.Data = append(p.Data, sim.Span{Blk: blk, Off: off, N: m})
				at += m
			}
			if tr.input(p, c.remote, false) {
				kept[p] = true
			} else {
				tr.sock.Recycle(p)
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
		// A take's bytes are checked only after scribbleFree has drawn
		// and overwritten the free blocks: the reference the take hands
		// over must keep its block off the spare list until dropped.
		var took []byte
		var tookBlk *sim.Block
		checkTook := func() {
			if tookBlk == nil {
				return
			}
			read -= int64(len(took))
			check("take", took)
			tr.k.Spares().Drop(tookBlk)
			took, tookBlk = nil, nil
		}
		buf := make([]byte, 2*MaxSeg)
		ops := len(prog) / 3
		for ; len(prog) >= 3; prog = prog[3:] {
			op, arg := prog[0], int(prog[1])<<8|int(prog[2])
			switch op % 4 {
			case 0: // at or before rcvNxt
				deliver(max(c.rcvNxt-int64(op>>2)*61, 0), 1+arg%MaxSeg, arg)
			case 1: // past rcvNxt
				deliver(c.rcvNxt+1+int64(op>>2)*211, 1+arg%MaxSeg, arg)
			case 2:
				m, err := c.Read(ctx, buf[:1+arg%len(buf)], 0)
				if err != nil && err != kernel.ErrWouldBlock {
					t.Fatalf("read: %v", err)
				}
				check("read", buf[:m])
			case 3:
				took, tookBlk, _ = c.take(1 + arg%len(buf))
				read += int64(len(took))
			}
			if got, want := c.rcv.Len(), int(c.rcvNxt-read); got != want {
				t.Fatalf("%d bytes queued, want the %d in [%d, %d)", got, want, read, c.rcvNxt)
			}
			if err := k.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			scribbleFree(t, tr, c)
			checkTook()
		}
		for c.rcv.Len() > 0 {
			data, blk, _ := c.take(len(buf))
			check("final take", data)
			tr.k.Spares().Drop(blk)
		}
		if c.rcvNxt != read {
			t.Fatalf("read up to %d of %d", read, c.rcvNxt)
		}
		for _, q := range c.reasm {
			delete(kept, q.pkt) // past the last in-order byte: still stashed
			for _, s := range q.pkt.Data {
				delete(blocks, s.Blk)
			}
		}
		// The acknowledgements leave the link: a record the connection
		// kept, handed back and drew again for one is in flight until
		// it lands on the unbound port and is recycled.
		k.Spawn("drain", func(p *kernel.Proc) { p.SleepFor(sim.Second) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// Draw the free list dry: it holds at most the records the net
		// was built with (16), the four scribbleFree may make, those the
		// test delivered, one acknowledgement per op (each waited on the
		// link until the run above) and the fast timeout's last one.
		for i := 0; i < 21+len(seen)+ops && len(kept) > 0; i++ {
			delete(kept, tr.sock.NewPacket(0))
		}
		if len(kept) > 0 {
			t.Fatalf("%d packet(s) the connection kept never came back to the net", len(kept))
		}
		for blk := range blocks {
			if blk.Held() {
				t.Fatal("a payload block is still referenced once every packet is back")
			}
		}
	})
}

// scribbleFree draws packet records with their header blocks and spare
// blocks off the machine, overwrites them and gives them back. A record
// or block drawn twice, or a record c still holds, fails the test.
func scribbleFree(t *testing.T, tr *Transport, c *Conn) {
	var recs []*socket.Packet
	var blks []*sim.Block
	seen := map[any]bool{}
	for range 4 {
		p := tr.sock.NewPacket(hdrBytes)
		for _, q := range c.reasm {
			if q.pkt == p {
				t.Fatal("the free list handed out a packet reassembly holds")
			}
		}
		hdr, blk := p.Data[0].Blk, tr.k.Spares().Get(kernel.FIFOBlock)
		if seen[p] || seen[hdr] || seen[blk] {
			t.Fatal("a free list handed out a record or block twice")
		}
		seen[p], seen[hdr], seen[blk] = true, true, true
		for _, b := range []*sim.Block{hdr, blk} {
			for i := range b.Bytes {
				b.Bytes[i] = 0xDB
			}
		}
		recs, blks = append(recs, p), append(blks, blk)
	}
	for i := range recs {
		tr.sock.Recycle(recs[i])
		tr.k.Spares().Drop(blks[i])
	}
}
