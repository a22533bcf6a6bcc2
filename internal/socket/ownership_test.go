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

// TestPacketBuffersRecycledAfterLastDelivery holds the net to handing
// every packet buffer back exactly once, after its last delivery, and
// never while a delivery keeps it.
func TestPacketBuffersRecycledAfterLastDelivery(t *testing.T) {
	t.Run("handlers", testRecycledBetweenHandlers)
	t.Run("kept-then-duplicate-refused", testRecycledRefusedDuplicate)
}

// testRecycledBetweenHandlers sends patterned datagrams between two
// handler sockets with dup and reorder armed on the same arrival and
// drop on the next one. Every handler call copies what it
// was lent, scribbles over every buffer on the free list, then builds
// an echo in a buffer from that list. A buffer recycled before its
// last delivery would be scribbled on or reused while still owed to a
// handler, and one recycled twice or never would leave the free list
// larger or smaller than the number of buffers the net ever owned: those
// it was built with and those PacketBuf made.
func testRecycledBetweenHandlers(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: 2})
	k.Faults().Arm(kernel.FaultArm{Site: n.ReorderSite(), K: 1, Match: 2})
	k.Faults().Arm(kernel.FaultArm{Site: n.DropSite(), K: 1, Match: 3})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)

	const size = 64
	owned := map[*byte]bool{}
	for _, f := range n.free[0] {
		owned[&f[:1][0]] = true
	}
	build := func(s *Socket, id byte) []byte {
		buf := s.PacketBuf(size)
		owned[&buf[0]] = true
		return datagram(buf, id)
	}
	scribble := func() {
		for _, f := range n.free[0] {
			f = f[:cap(f)]
			for i := range f {
				f[i] = 0xDB
			}
		}
	}
	var atA, atB []byte // first byte of each datagram seen, i.e. its id
	see := func(ids *[]byte, data []byte) {
		kept := append([]byte(nil), data...)
		scribble()
		if len(kept) != size || !bytes.Equal(kept, datagram(make([]byte, size), kept[0])) {
			t.Errorf("datagram %d arrived damaged: %v", kept[0], kept)
		}
		*ids = append(*ids, kept[0])
	}
	b.SetHandler(func(data []byte, from int, eof bool) bool {
		see(&atB, data)
		b.SendTo(from, build(b, data[0]+100), nil)
		return false
	})
	a.SetHandler(func(data []byte, from int, eof bool) bool { see(&atA, data); return false })

	burst := func(first byte) {
		for id := first; id < first+6; id++ { // back to back: all in flight together
			a.SendTo(2, build(a, id), nil)
		}
	}
	resting := 0
	k.Spawn("tx", func(p *kernel.Proc) {
		burst(1)
		p.SleepFor(20 * sim.Millisecond)
		resting = len(n.free[0])
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
	if resting != len(owned) || len(n.free[0]) != resting || len(n.free[1]) != 0 {
		t.Errorf("free list holds %d buffers after the first burst and %d at the end; the net ever owned %d",
			resting, len(n.free[0]), len(owned))
	}
	for _, f := range n.free[0] {
		if p := &f[:1][0]; !owned[p] {
			t.Errorf("free list holds a buffer twice, or one the net never owned")
		} else {
			delete(owned, p)
		}
	}
}

// testRecycledRefusedDuplicate: a queued socket with room for one
// datagram keeps the first delivery of a duplicated one and refuses its
// twin. The twin's buffer goes back to the free list, and the read that
// copies the kept one out returns that one: the free list ends holding
// every buffer the net ever owned.
func testRecycledRefusedDuplicate(t *testing.T) {
	const size = 64
	k := newK()
	p := Loopback()
	p.RcvBufBytes = size
	n := NewNet(k, p)
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	owned := len(n.free[0])
	k.Spawn("rx", func(p *kernel.Proc) {
		got := make([]byte, size)
		if m, err := b.Read(p.Ctx(), got, 0); m != size || err != nil || !bytes.Equal(got, datagram(make([]byte, size), 1)) {
			t.Errorf("read = (%d, %v) %v, want datagram 1", m, err, got)
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		a.SendTo(2, datagram(a.PacketBuf(size), 1), nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("%d datagrams dropped, want the twin alone", dropped)
	}
	if len(n.free[0]) != owned {
		t.Errorf("free list holds %d buffers at the end; the net ever owned %d", len(n.free[0]), owned)
	}
}

// TestHandlerKeepsUntilRecycle drives a handler that keeps every other
// datagram it is handed: one of each two it returns through Recycle
// several arrivals later, the other before it returns. Drop, dup and
// reorder are armed at intervals, and every arrival draws an echo off
// the free list. Every call scribbles over the free list: a kept buffer
// that the net recycled as well, or copied from for the twin of a
// duplicate after its keeper gave it back, would be scribbled on or
// reused. At the end the free list must hold each buffer the net ever
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
	owned := map[*byte]bool{}
	own := func(buf []byte) { owned[&buf[:1][0]] = true }
	for _, f := range n.free[0] {
		own(f)
	}
	scribble := func() {
		for _, f := range n.free[0] {
			f = f[:cap(f)]
			for i := range f {
				f[i] = 0xDB
			}
		}
	}
	type keptBuf struct {
		data []byte
		id   byte
	}
	var held []keptBuf
	giveBack := func() {
		h := held[0]
		held = held[1:]
		if !bytes.Equal(h.data, datagram(make([]byte, size), h.id)) {
			t.Errorf("kept datagram %d was written to while kept: %v", h.id, h.data)
		}
		b.Recycle(h.data)
	}
	calls, seen := 0, 0
	b.SetHandler(func(data []byte, from int, eof bool) bool {
		own(data)
		scribble()
		id := data[0]
		if len(data) != size || !bytes.Equal(data, datagram(make([]byte, size), id)) {
			t.Errorf("datagram %d arrived damaged: %v", id, data)
		}
		seen++
		echo := a.PacketBuf(size)
		own(echo)
		b.SendTo(1, datagram(echo, id+100), nil)
		switch calls++; calls % 4 {
		case 1, 3:
			return false
		case 0: // kept and given back at once, as by a reader waiting for it
			b.Recycle(data)
			scribble()
			return true
		}
		held = append(held, keptBuf{data, id})
		if len(held) > 3 {
			giveBack()
		}
		return true
	})
	a.SetHandler(func(data []byte, from int, eof bool) bool { own(data); return false })

	k.Spawn("tx", func(p *kernel.Proc) {
		for id := byte(1); id <= 60; id++ {
			buf := a.PacketBuf(size)
			own(buf)
			a.SendTo(2, datagram(buf, id), nil)
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
	if len(n.free[0]) != len(owned) || len(n.free[1]) != 0 {
		t.Errorf("free list holds %d buffers at the end; the net ever owned %d", len(n.free[0]), len(owned))
	}
	for _, f := range n.free[0] {
		if p := &f[:1][0]; !owned[p] {
			t.Errorf("free list holds a buffer twice, or one the net never owned")
		} else {
			delete(owned, p)
		}
	}
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
				a.SendTo(2, datagram(a.PacketBuf(256), byte(sent)), nil)
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

// TestQueuedDuplicateOwnsItsBuffer: a read hands its datagram's buffer
// back to the net, so a duplicated datagram must not sit in the receive
// queue twice over one buffer — the second copy would be overwritten by
// whatever is sent after the first is read. The copy, and a buffer a
// SendTo caller made itself, may be smaller than the small free list's
// buffers: every buffer resting on that list afterwards must still be
// good for the largest small datagram.
func TestQueuedDuplicateOwnsItsBuffer(t *testing.T) {
	k := newK()
	n := NewNet(k, Loopback())
	k.Faults().Arm(kernel.FaultArm{Site: n.DupSite(), K: 1, Match: kernel.MatchAny})
	a, _ := n.NewSocket(1)
	b, _ := n.NewSocket(2)
	const size = 64
	want := datagram(make([]byte, size), 1)
	k.Spawn("rx", func(p *kernel.Proc) {
		got := make([]byte, size)
		for i := 0; i < 2; i++ {
			if m, err := b.Read(p.Ctx(), got, 0); m != size || err != nil || !bytes.Equal(got, want) {
				t.Errorf("read %d = (%d, %v) %v, want datagram 1 intact", i, m, err, got)
			}
			// Traffic that draws on the free list between the two reads.
			for id := byte(10); id < 14; id++ {
				a.SendTo(3, datagram(a.PacketBuf(size), id), nil)
			}
			p.SleepFor(10 * sim.Millisecond)
		}
		a.SendTo(3, []byte{1, 2, 3}, nil) // the sender's own buffer, taken over
		p.SleepFor(10 * sim.Millisecond)
		for i := len(n.free[0]); i >= 0; i-- { // every resting buffer, and a new one
			a.SendTo(3, datagram(a.PacketBuf(smallPacket), 20), nil)
		}
	})
	k.Spawn("tx", func(p *kernel.Proc) {
		a.SendTo(2, datagram(a.PacketBuf(size), 1), nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
