package disk

import (
	"testing"

	"kdp/internal/buf"
)

// transferRig is a RAM disk whose block 5 holds bytes, and a buffer of
// that block held busy outside the cache's lookups, for transfers
// issued straight to the driver (a RAM disk completes them inline).
func transferRig(tb testing.TB) (c *buf.Cache, d *Disk, b *buf.Buf) {
	tb.Helper()
	k, c, d := newRig(RAMDisk(64, 8192))
	d.WriteRaw(5, []byte{1, 2, 3})
	return c, d, c.Getblk(k.IntrCtx(), d, 5)
}

// transfer issues a read (or a write of n bytes) of b and waits for
// nothing: the RAM disk has completed it when Strategy returns.
func transfer(d *Disk, b *buf.Buf, read bool, n int) {
	b.Flags, b.Bcount = buf.BBusy, n
	if read {
		b.Flags |= buf.BRead
	}
	d.Strategy(b)
}

// TestRewriteRecyclesTheBlockItReplaces: a store into a block the
// platter shares copies it into a spare, and the write that follows
// lets go of the platter's old block, which the next store draws: a
// steady stream of rewrites allocates nothing. A read shares the
// platter's block and moves no bytes.
func TestRewriteRecyclesTheBlockItReplaces(t *testing.T) {
	c, d, b := transferRig(t)
	transfer(d, b, true, 8192)
	if b.Lend() != d.blocks[5] || b.Data[2] != 3 {
		t.Fatal("a read did not share the platter's block")
	}
	rewrites := 0
	rewrite := func() {
		c.Store(b, false)[0]++
		transfer(d, b, false, 8192)
		rewrites++
	}
	rewrite() // the first store has no spare to draw
	if allocs := testing.AllocsPerRun(100, rewrite); allocs != 0 {
		t.Errorf("a rewrite allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { transfer(d, b, true, 8192) }); allocs != 0 {
		t.Errorf("a read allocates %.0f objects, want 0", allocs)
	}
	var got [3]byte
	d.ReadRaw(5, got[:])
	if got != [3]byte{byte(1 + rewrites), 2, 3} {
		t.Errorf("the platter holds %v after %d rewrites of byte 0", got, rewrites)
	}
}

// BenchmarkDiskTransfer is what a RAM-disk transfer costs the host, per
// simulated block: a read, which shares the platter's block; a
// whole-block write, which shares the buffer's; a store into a block
// the platter shares (the copy-on-write) and its write; and a partial
// write, which copies its bytes into the block the platter alone holds.
func BenchmarkDiskTransfer(b *testing.B) {
	for _, bc := range []struct {
		name string
		op   func(c *buf.Cache, d *Disk, bp *buf.Buf)
	}{
		{"read/shared", func(_ *buf.Cache, d *Disk, bp *buf.Buf) { transfer(d, bp, true, 8192) }},
		{"write/shared", func(_ *buf.Cache, d *Disk, bp *buf.Buf) { transfer(d, bp, false, 8192) }},
		{"write/cow", func(c *buf.Cache, d *Disk, bp *buf.Buf) {
			c.Store(bp, false)[0]++
			transfer(d, bp, false, 8192)
		}},
		{"write/partial", func(_ *buf.Cache, d *Disk, bp *buf.Buf) { transfer(d, bp, false, 512) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, d, bp := transferRig(b)
			c.Store(bp, false)
			bc.op(c, d, bp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(c, d, bp)
			}
		})
	}
}
