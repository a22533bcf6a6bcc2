package kernel

import (
	"bytes"
	"testing"

	"kdp/internal/sim"
)

// held is a block span a holder other than the FIFO keeps — a cache
// buffer whose block the queue shares, or a packet the queue's Spans
// made — with the bytes it must go on reading.
type held struct {
	span sim.Span
	want []byte
}

// runFIFO drives one FIFO from a program of 3-byte ops against a flat
// reference: Push (fresh bytes), Share (a window of a block the test
// keeps a reference to, as a cache buffer does), Spans (kept as a packet
// is), Drop or Read, CopyOut, and letting go of the oldest block or
// packet the test holds. Its Spares start with small blocks, so a few bytes cross
// block boundaries. After every op the queue must read what the
// reference holds, report no SpanFault, and leave every byte another
// holder reads as it was: Push stores only into a block it holds alone.
// It returns how many Pushes stored into a block the queue shared once
// and came to hold alone, the last sharing rule case.
func runFIFO(t *testing.T, prog []byte) (stored int) {
	t.Helper()
	sp := newSpares(16, 8)
	for range 8 {
		sp.Drop(sim.NewBlock(16))
	}
	f := FIFO{Spares: &sp}
	var model []byte
	var others []held             // blocks and packets other holders keep, oldest first
	lent := map[*sim.Block]bool{} // the blocks Share was handed
	next := byte(0)
	fresh := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = next
			next++
		}
		return b
	}
	for ; len(prog) >= 3; prog = prog[3:] {
		op, arg := prog[0]%6, int(prog[1])<<8|int(prog[2])
		switch op {
		case 0:
			alone := false
			if k := f.spans.Len(); k > 0 {
				tail := f.spans.At(k - 1)
				alone = lent[tail.Blk] && !tail.Blk.Shared() && tail.Off+tail.N < len(tail.Blk.Bytes)
			}
			b := fresh(arg % 40)
			f.Push(b)
			model = append(model, b...)
			if alone && len(b) > 0 {
				stored++
			}
		case 1: // a window of a block the test fills and keeps
			blk := sim.NewBlock(16)
			for i := range blk.Bytes {
				blk.Bytes[i] = byte(i) * 31
			}
			lo := arg % len(blk.Bytes)
			hi := lo + (arg>>4)%(len(blk.Bytes)-lo+1)
			f.Share(blk, blk.Bytes[lo:hi])
			lent[blk] = true
			model = append(model, blk.Bytes[lo:hi]...)
			others = append(others, held{sim.Span{Blk: blk, N: len(blk.Bytes)}, bytes.Clone(blk.Bytes)})
		case 2: // a segment's payload, kept as a packet keeps it
			off := arg % (len(model) + 1)
			n := (arg >> 3) % (len(model) - off + 1)
			var got []byte
			for _, s := range f.Spans(nil, off, n) {
				got = append(got, s.Bytes()...)
				others = append(others, held{s, bytes.Clone(s.Bytes())})
			}
			if !bytes.Equal(got, model[off:off+n]) {
				t.Fatalf("Spans(%d, %d) = %v, reference %v", off, n, got, model[off:off+n])
			}
		case 3: // Drop, or Read, which drops what it copies out
			n := arg % (len(model) + 1)
			if arg&1 == 0 {
				f.Drop(n)
			} else if dst := make([]byte, n); f.Read(dst) != n || !bytes.Equal(dst, model[:n]) {
				t.Fatalf("Read(%d bytes) = %v, reference %v", n, dst, model[:n])
			}
			model = model[n:]
		case 4:
			off := arg % (len(model) + 1)
			dst := make([]byte, (arg>>3)%(len(model)-off+3))
			n := f.CopyOut(dst, off)
			if want := min(len(dst), len(model)-off); n != want || !bytes.Equal(dst[:n], model[off:off+n]) {
				t.Fatalf("CopyOut(%d bytes from %d) = %d %v, reference %v", len(dst), off, n, dst[:n], model[off:])
			}
		case 5:
			if len(others) > 0 {
				sp.Drop(others[0].span.Blk)
				others = others[1:]
			}
		}
		if got := queued(&f); f.Len() != len(model) || !bytes.Equal(got, model) {
			t.Fatalf("queue holds %v (Len %d), reference %v", got, f.Len(), model)
		}
		if why := f.SpanFault(); why != "" {
			t.Fatalf("SpanFault: %s", why)
		}
		for _, h := range others {
			if got := h.span.Bytes(); !bytes.Equal(got, h.want) {
				t.Fatalf("a block another holder keeps changed: %v, want %v", got, h.want)
			}
		}
	}
	f.Drop(f.Len())
	for _, h := range others {
		sp.Drop(h.span.Blk)
	}
	for _, l := range sp.bySize {
		for _, b := range l.blks {
			if b.Held() {
				t.Fatal("a spare block is still referenced")
			}
		}
	}
	return stored
}

// FuzzFIFO searches for a program runFIFO fails.
//
// `go test -fuzz=FuzzFIFO ./internal/kernel` searches; plain `go test`
// replays the seeds below (TestFIFOAgainstModel runs 20 long random
// programs).
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 30, 1, 0x12, 0x34, 0, 0, 30, 2, 0, 9, 5, 0, 0, 0, 0, 20, 3, 0, 50, 4, 0, 0})
	f.Add([]byte{1, 0, 40, 0, 0, 10, 2, 1, 3, 5, 0, 0, 0, 0, 10, 3, 0xff, 0xff, 0, 0, 39})
	f.Fuzz(func(t *testing.T, prog []byte) { runFIFO(t, prog) })
}
