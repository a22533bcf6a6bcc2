package socket

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// datagram builds the test's id-th datagram: n bytes no other id shares.
func datagram(b []byte, id byte) []byte {
	for i := range b {
		b[i] = id ^ byte(i)*7
	}
	return b
}

// head returns the bytes of p's first span: the header NewPacket made.
func head(p *Packet) []byte { return p.Data[0].Bytes() }

// bytesOf returns a copy of p's bytes, its spans' in order.
func bytesOf(p *Packet) []byte {
	var b []byte
	for _, s := range p.Data {
		b = append(b, s.Bytes()...)
	}
	return b
}

// TestPacketBuffersRecycledAfterLastDelivery holds the net to handing
// every packet record back exactly once, after its last delivery, and
// never while a delivery keeps it.
func TestPacketBuffersRecycledAfterLastDelivery(t *testing.T) {
	t.Run("handlers", testRecycledBetweenHandlers)
	t.Run("kept-then-duplicate-refused", testRecycledRefusedDuplicate)
}

// testRecycledBetweenHandlers sends patterned datagrams between two
// handler sockets with dup and reorder armed on the same arrival and
// drop on the next one. Every handler call copies what it
// was lent, scribbles over the spare header blocks, then builds an echo
// in a record from the free list. A record or header block recycled
// before its last delivery would be reused or scribbled on while still
// owed to a handler, and a record recycled twice or never would leave
// the free list larger or smaller than the number of records the net
// ever owned: those it was built with and those NewPacket made.
func testRecycledBetweenHandlers(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: 2})
	k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), K: 1, Match: 2})
	k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), K: 1, Match: 3})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)

	const size = 64
	owned := map[*Packet]bool{}
	for _, f := range n.free {
		owned[f] = true
	}
	build := func(s *Socket, id byte) *Packet {
		p := s.NewPacket(size)
		owned[p] = true
		datagram(head(p), id)
		return p
	}
	var atA, atB []byte // first byte of each datagram seen, i.e. its id
	see := func(ids *[]byte, p *Packet) {
		kept := bytesOf(p)
		scribble(n)
		if len(kept) != size || !bytes.Equal(kept, datagram(make([]byte, size), kept[0])) {
			t.Errorf("datagram %d arrived damaged: %v", kept[0], kept)
		}
		*ids = append(*ids, kept[0])
	}
	b.SetHandler(func(p *Packet, from int, eof bool) bool {
		see(&atB, p)
		b.SendTo(from, build(b, head(p)[0]+100), nil)
		return false
	})
	a.SetHandler(func(p *Packet, from int, eof bool) bool { see(&atA, p); return false })

	burst := func(first byte) {
		for id := first; id < first+6; id++ { // back to back: all in flight together
			a.SendTo(2, build(a, id), nil)
		}
	}
	resting := 0
	k.Spawn("tx", func(p *kernel.Proc) {
		burst(1)
		p.SleepFor(20 * sim.Millisecond)
		resting = len(n.free)
		burst(11) // nothing in flight: every buffer comes off the free list
		p.SleepFor(20 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	slices.Sort(atA)
	slices.Sort(atB)
	if want := []byte{1, 2, 2, 4, 5, 6, 11, 12, 13, 14, 15, 16}; !bytes.Equal(atB, want) {
		t.Errorf("b saw datagrams %v, want %v (2 twice, 3 dropped)", atB, want)
	}
	if want := []byte{101, 102, 102, 104, 105, 106, 111, 112, 113, 114, 115, 116}; !bytes.Equal(atA, want) {
		t.Errorf("a saw echoes %v, want %v", atA, want)
	}
	if resting != len(owned) || len(n.free) != resting {
		t.Errorf("free list holds %d records after the first burst and %d at the end; the net ever owned %d",
			resting, len(n.free), len(owned))
	}
	checkFreeList(t, n, owned)
}

// scribble overwrites the sixteen header blocks the machine's spares
// would hand out next, where one let go of too early would be.
func scribble(n *Net) {
	var blks [16]*sim.Block
	for i := range blks {
		blks[i] = n.k.Spares().Get(smallPacket)
		for j := range blks[i].Bytes {
			blks[i].Bytes[j] = 0xDB
		}
	}
	for i := range blks {
		n.k.Spares().Drop(blks[len(blks)-1-i])
	}
}

// checkFreeList requires n's free list to hold each record of owned
// once, and nothing else.
func checkFreeList(t *testing.T, n *Net, owned map[*Packet]bool) {
	t.Helper()
	for _, f := range n.free {
		if !owned[f] {
			t.Errorf("free list holds a record twice, or one the net never owned")
		}
		delete(owned, f)
	}
	if len(owned) > 0 {
		t.Errorf("%d record(s) the net owned are not on its free list", len(owned))
	}
}

// testRecycledRefusedDuplicate: a queued socket with room for one
// datagram of more than half its receive bound keeps the first delivery
// of a duplicated one and refuses its twin. The twin's record goes back
// to the free list, and the read that copies the kept one out returns
// that one: the free list ends holding every record the net ever owned.
func testRecycledRefusedDuplicate(t *testing.T) {
	const size = rcvBufBytes/2 + 1
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	owned := len(n.free)
	k.Spawn("rx", func(p *kernel.Proc) {
		got := make([]byte, size)
		if m, err := b.Read(p.Ctx(), got, 0); m != size || err != nil || !bytes.Equal(got, datagram(make([]byte, size), 1)) {
			t.Errorf("read = (%d, %v) %v, want datagram 1", m, err, got)
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		a.SpliceWrite(datagram(make([]byte, size), 1), nil, func(error) {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("%d datagrams dropped, want the twin alone", dropped)
	}
	if len(n.free) != owned {
		t.Errorf("free list holds %d records at the end; the net ever owned %d", len(n.free), owned)
	}
}

// TestHandlerKeepsUntilRecycle drives a handler that keeps every other
// datagram it is handed: one of each two it returns through Recycle
// several arrivals later, the other before it returns. Drop, dup and
// reorder are armed at intervals, and every arrival draws an echo off
// the free list. Every call scribbles over the free list: a kept record
// that the net recycled as well, or copied from for the twin of a
// duplicate after its keeper gave it back, would be scribbled on or
// reused. At the end the free list must hold each record the net ever
// owned once.
func TestHandlerKeepsUntilRecycle(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), Every: 7, Match: kernel.MatchAny, Count: -1, Quiet: true})
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), Every: 3, Match: kernel.MatchAny, Count: -1, Quiet: true})
	k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), Every: 5, Match: kernel.MatchAny, Count: -1, Quiet: true})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)

	const size = 64
	owned := map[*Packet]bool{}
	own := func(p *Packet) { owned[p] = true }
	for _, f := range n.free {
		own(f)
	}
	type keptBuf struct {
		data *Packet
		id   byte
	}
	var held []keptBuf
	giveBack := func() {
		h := held[0]
		held = held[1:]
		if got := bytesOf(h.data); !bytes.Equal(got, datagram(make([]byte, size), h.id)) {
			t.Errorf("kept datagram %d was written to while kept: %v", h.id, got)
		}
		b.Recycle(h.data)
	}
	calls, seen := 0, 0
	b.SetHandler(func(p *Packet, from int, eof bool) bool {
		own(p)
		scribble(n)
		got := bytesOf(p)
		id := got[0]
		if p.Len() != size || !bytes.Equal(got, datagram(make([]byte, size), id)) {
			t.Errorf("datagram %d arrived damaged: %v", id, got)
		}
		seen++
		echo := a.NewPacket(size)
		own(echo)
		datagram(head(echo), id+100)
		b.SendTo(1, echo, nil)
		switch calls++; calls % 4 {
		case 1, 3:
			return false
		case 0: // kept and given back at once, as by a reader waiting for it
			b.Recycle(p)
			scribble(n)
			return true
		}
		held = append(held, keptBuf{p, id})
		if len(held) > 3 {
			giveBack()
		}
		return true
	})
	a.SetHandler(func(p *Packet, from int, eof bool) bool { own(p); return false })

	k.Spawn("tx", func(p *kernel.Proc) {
		for id := byte(1); id <= 60; id++ {
			pkt := a.NewPacket(size)
			own(pkt)
			datagram(head(pkt), id)
			a.SendTo(2, pkt, nil)
			if id%6 == 0 {
				p.SleepFor(5 * sim.Millisecond)
			}
		}
		p.SleepFor(20 * sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for len(held) > 0 {
		giveBack()
	}
	if _, _, dropped := n.Stats(); dropped == 0 || seen <= 60-int(dropped) {
		t.Fatalf("b saw %d datagrams with %d dropped: the link was meant to drop and duplicate", seen, dropped)
	}
	if len(n.free) != len(owned) {
		t.Errorf("free list holds %d records at the end; the net ever owned %d", len(n.free), len(owned))
	}
	checkFreeList(t, n, owned)
}

// backing returns the whole backing array of a kernel.Queue, the popped
// slots included.
func backing(q any) reflect.Value {
	items := reflect.ValueOf(q).Elem().FieldByName("items")
	return items.Slice(0, items.Cap())
}

// TestQueuesKeepNothingTheyPopped pushes 1 000 datagrams through one
// net, eight at a time: the link queue and the receive queue must end
// no larger than a burst needs, with no packet left in a popped slot.
func TestQueuesKeepNothingTheyPopped(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	received := 0
	k.Spawn("rx", func(p *kernel.Proc) {
		buf := make([]byte, 256)
		for {
			nr, err := b.Read(p.Ctx(), buf, 0)
			if nr == 0 || err != nil {
				return
			}
			received++
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		for sent := 0; sent < 1000; {
			for i := 0; i < 8; i, sent = i+1, sent+1 {
				pkt := a.NewPacket(256)
				datagram(head(pkt), byte(sent))
				a.SendTo(2, pkt, nil)
			}
			p.SleepFor(10 * sim.Millisecond)
		}
		_ = a.Close(p.Ctx())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 1000 {
		t.Fatalf("received %d datagrams, want 1000", received)
	}
	for name, q := range map[string]any{"txq": &n.txq, "rcvq": &b.rcvq} {
		slots := backing(q)
		if slots.Len() == 0 || slots.Len() > 16 {
			t.Errorf("%s: backing array has %d slots after bursts of 8, want 1..16", name, slots.Len())
		}
		for i := 0; i < slots.Len(); i++ {
			if !slots.Index(i).IsZero() {
				t.Errorf("%s: popped slot %d still holds its packet", name, i)
			}
		}
	}
}

// TestReadvTruncatesOversizedDatagram: a datagram longer than the
// vector fills the vector and loses its tail, as recvfrom does; the
// next read starts at the next datagram.
func TestReadvTruncatesOversizedDatagram(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	k.Spawn("both", func(p *kernel.Proc) {
		ctx := p.Ctx()
		for _, msg := range []string{"0123456789", "next"} {
			if _, err := a.Write(ctx, []byte(msg), 0); err != nil {
				t.Errorf("write %q: %v", msg, err)
			}
		}
		iov := [][]byte{make([]byte, 3), make([]byte, 4)}
		if nr, err := b.Readv(ctx, iov, 0); nr != 7 || err != nil || string(iov[0])+string(iov[1]) != "0123456" {
			t.Errorf("readv = (%d, %v) %q %q, want 7 bytes \"012\" \"3456\"", nr, err, iov[0], iov[1])
		}
		buf := make([]byte, 16)
		if nr, err := b.Read(ctx, buf, 0); err != nil || string(buf[:nr]) != "next" {
			t.Errorf("read after the truncated datagram = %q, %v; want \"next\"", buf[:nr], err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedDuplicateOwnsItsBuffer: a read hands its datagram's record
// and header block back to the net, so a duplicated datagram must not
// sit in the receive queue twice over one record, nor over a block the
// first read let go of — the second copy would be overwritten by
// whatever is sent after the first is read. Every record resting on the
// free list afterwards must still be good for the largest header.
func TestQueuedDuplicateOwnsItsBuffer(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	const size = 64
	want := datagram(make([]byte, size), 1)
	send := func(dst int, size int, id byte) {
		p := a.NewPacket(size)
		datagram(head(p), id)
		a.SendTo(dst, p, nil)
	}
	k.Spawn("rx", func(p *kernel.Proc) {
		got := make([]byte, size)
		for i := 0; i < 2; i++ {
			if m, err := b.Read(p.Ctx(), got, 0); m != size || err != nil || !bytes.Equal(got, want) {
				t.Errorf("read %d = (%d, %v) %v, want datagram 1 intact", i, m, err, got)
			}
			// Traffic that draws on the free list between the two reads.
			for id := byte(10); id < 14; id++ {
				send(3, size, id)
			}
			p.SleepFor(10 * sim.Millisecond)
		}
		for i := len(n.free); i >= 0; i-- { // every resting record, and a new one
			send(3, smallPacket, 20)
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) { send(2, size, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPayloadSharesBlocks: a datagram sent from a block shares it — the
// socket takes a reference and copies nothing — and a duplicate shares
// it too, in a record of its own. Each delivery reads the block's
// bytes, and the last one to let go of the packet drops the reference:
// the block comes back to its holder alone. Bytes of no block too long
// for a header block travel in blocks of the machine's spares.
func TestPayloadSharesBlocks(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	a.Connect(2)
	blk := sim.NewBlock(512)
	datagram(blk.Bytes, 7)
	big := datagram(make([]byte, 3*smallPacket), 9)
	var got [][]byte
	k.Spawn("rx", func(p *kernel.Proc) {
		for {
			buf := make([]byte, 2*len(big))
			m, err := b.Read(p.Ctx(), buf, 0)
			if m == 0 || err != nil {
				return
			}
			got = append(got, buf[:m])
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		a.SpliceWrite(blk.Bytes[100:400], blk, func(error) {})
		if !blk.Shared() {
			t.Error("the datagram took no reference to the block it was sent from")
		}
		a.SpliceWrite(big, nil, func(error) {})
		p.SleepFor(10 * sim.Millisecond)
		_ = a.Close(p.Ctx())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], blk.Bytes[100:400]) || !bytes.Equal(got[1], got[0]) || !bytes.Equal(got[2], big) {
		t.Fatalf("received %d datagrams, want the block's window twice and the long one", len(got))
	}
	if blk.Shared() {
		t.Error("the packets kept their references to the block once read")
	}
}
