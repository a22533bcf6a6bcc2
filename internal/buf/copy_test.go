package buf

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// copyPair is one whole-block copy through user memory mem, as cp's
// loop does it: block src read and copied out, then block dst got and
// filled by a copyin of mem. It returns dst's buffer, a delayed write;
// between the two, change runs on mem.
func copyPair(t testing.TB, f *fixture, ctx kernel.Ctx, src, dst int64, mem []byte, change func()) *Buf {
	t.Helper()
	b, err := f.c.Bread(ctx, f.dev, src)
	if err != nil {
		t.Fatalf("bread %d: %v", src, err)
	}
	f.c.CopyOut(b, 0, mem)
	f.c.Brelse(ctx, b)
	if change != nil {
		change()
	}
	d := f.c.Getblk(ctx, f.dev, dst)
	f.c.CopyIn(d, 0, mem, true)
	f.c.Bdwrite(ctx, d)
	return d
}

// blockFixture is a fixture whose device holds a pattern in block 5.
func blockFixture() *fixture {
	f := newFixture(16)
	for i := range f.dev.data[5*8192 : 6*8192] {
		f.dev.data[5*8192+i] = byte(i%251 + 1)
	}
	return f
}

// TestCopyInSharesWhatCopyOutRead: a whole block copied out and copied
// back in from the same memory, unchanged, makes the destination share
// the source buffer's block (the copy hint); the first store into
// either copies it, so the other keeps its bytes.
func TestCopyInSharesWhatCopyOutRead(t *testing.T) {
	f := blockFixture()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		mem := make([]byte, 8192)
		d := copyPair(t, f, ctx, 5, 7, mem, nil)
		s := f.c.Peek(f.dev, 5)
		if d.blk != s.blk || f.c.hint != s.blk {
			t.Fatalf("destination holds %p, source %p, hint %p: want one block", d.blk, s.blk, f.c.hint)
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		d = f.c.Getblk(ctx, f.dev, 7)
		f.c.CopyIn(d, 100, []byte{0}, false)
		f.c.Bdwrite(ctx, d)
		if d.blk == s.blk || s.Data[100] != 101 || d.Data[100] != 0 || d.Data[101] != 102 {
			t.Fatalf("a store into the shared block reached the source: %d, or missed the copy: %d %d", s.Data[100], d.Data[100], d.Data[101])
		}
	})
}

// TestCopyInCopiesAChangedBuffer: memory changed between the copyout and
// the copyin is copied, not shared, whatever the hint remembers.
func TestCopyInCopiesAChangedBuffer(t *testing.T) {
	f := blockFixture()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		mem := make([]byte, 8192)
		d := copyPair(t, f, ctx, 5, 7, mem, func() { mem[4000]++ })
		if s := f.c.Peek(f.dev, 5); d.blk == s.blk || !bytes.Equal(d.Data, mem) || s.Data[4000] == mem[4000] {
			t.Fatal("a changed buffer was shared, or its copy is not what the process wrote")
		}
		// Other memory holding the same bytes is not the hint's either.
		other := bytes.Clone(f.c.Peek(f.dev, 5).Data)
		d = f.c.Getblk(ctx, f.dev, 8)
		f.c.CopyIn(d, 0, other, true)
		f.c.Bdwrite(ctx, d)
		if d.blk == f.c.hint {
			t.Fatal("a copyin from memory the copyout did not fill shared the hint")
		}
	})
}

// TestCopyInSkipsItsOwnPlatterBlock: the hint that is the destination's
// own platter entry is copied, not shared — a delayed write may not hold
// the block its platter holds (buf-block-owned) — and so is a block
// written back over itself, whose buffer shares its platter's block.
func TestCopyInSkipsItsOwnPlatterBlock(t *testing.T) {
	f := blockFixture()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		mem := make([]byte, 8192)
		b, err := f.c.Bread(ctx, f.dev, 5)
		if err != nil {
			t.Fatal(err)
		}
		f.c.CopyOut(b, 0, mem)
		f.c.Brelse(ctx, b)
		f.dev.shared = map[int64]*sim.Block{7: f.c.hint}
		d := f.c.Getblk(ctx, f.dev, 7)
		f.c.CopyIn(d, 0, mem, true)
		f.c.Bdwrite(ctx, d)
		if d.blk == f.c.hint {
			t.Fatal("the destination shares its own platter entry")
		}
		// Block 5 written back from what it was read into.
		f.dev.shared = map[int64]*sim.Block{5: f.c.hint}
		s := copyPair(t, f, ctx, 5, 5, mem, nil)
		if s.blk == f.c.hint || !bytes.Equal(s.Data, mem) {
			t.Fatal("a block written back over itself kept its platter's block")
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCopyPairAllocatesNothing: a warm whole-block read-then-write pair,
// both blocks cached, allocates nothing on the host: the copyin shares
// the block the copyout read, and the block the destination let go of
// waits on the machine's spares.
func TestCopyPairAllocatesNothing(t *testing.T) {
	f := blockFixture()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		mem := make([]byte, 8192)
		pair := func() { copyPair(t, f, ctx, 5, 7, mem, nil) }
		pair()
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("a warm copy pair allocates %v times, want 0", n)
		}
		if d, s := f.c.Peek(f.dev, 7), f.c.Peek(f.dev, 5); d.blk != s.blk {
			t.Error("the pair did not share")
		}
	})
}
