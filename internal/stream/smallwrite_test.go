package stream

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// TestSmallWritesHoldNoBlockPerSegment: a writer making 1-byte writes to
// a reader that does not read yet sends a segment per write, whose
// payload the receive buffer shares. Each payload travels in its
// packet's header block, so the receive buffer holds no FIFOBlock-sized
// block — none of the send queue's — and the send queue goes on storing
// into its newest block: the blocks held are the ones the queued bytes
// fill, not one per segment.
func TestSmallWritesHoldNoBlockPerSegment(t *testing.T) {
	k := newK()
	n := socket.NewNet(k, socket.Ethernet10())
	srv, _ := NewTransport(k, n, 80)
	cli, _ := NewTransport(k, n, 5001)
	const writes = 2000
	msg := pattern(writes, 3)
	var got []byte
	k.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		fd, c, err := srv.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		p.SleepFor(5 * sim.Second) // every write has arrived by now
		if c.rcv.Len() != writes {
			t.Errorf("%d bytes wait for the reader, want all %d", c.rcv.Len(), writes)
		}
		big := 0
		for _, s := range c.rcv.Spans(nil, 0, c.rcv.Len()) {
			if len(s.Blk.Bytes) >= kernel.FIFOBlock {
				big++
			}
			k.Spares().Drop(s.Blk)
		}
		if big > 0 {
			t.Errorf("the receive buffer holds %d spans of FIFOBlock-sized blocks for %d bytes, want none", big, c.rcv.Len())
		}
		got = readToEOF(t, p, fd)
		_ = p.Close(fd)
	})
	k.Spawn("client", func(p *kernel.Proc) {
		fd, c, err := cli.Connect(p, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		most := 0
		for i := range msg {
			if _, err := p.Write(fd, msg[i:i+1]); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			most = max(most, sendBlocks(k, c))
		}
		if most > 1 {
			t.Errorf("the send queue held %d blocks at once for %d bytes written one at a time, want 1", most, writes)
		}
		_ = p.Close(fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %d bytes, want the %d written", len(got), len(msg))
	}
	if err := k.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// sendBlocks returns how many blocks c's send queue holds.
func sendBlocks(k *kernel.Kernel, c *Conn) int {
	spans := c.snd.Spans(nil, 0, c.snd.Len())
	n := 0
	for i, s := range spans {
		if i == 0 || s.Blk != spans[i-1].Blk {
			n++
		}
	}
	for _, s := range spans {
		k.Spares().Drop(s.Blk)
	}
	return n
}
