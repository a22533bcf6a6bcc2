package fs

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/trace"
)

// metrics returns the rig's trace counters, starting the trace on the
// first call: it counts from there on.
func (r *rig) metrics() *trace.Metrics {
	if tr := r.k.Tracer(); tr != nil {
		return tr.Metrics()
	}
	return r.k.StartTrace(nil).Metrics()
}

// lookups is the buffer cache's demand-lookup count since the first
// call: every pointer block a walk reads is one, and so is the bitmap
// block an allocation reads.
func (r *rig) lookups() int64 {
	mt := r.metrics()
	return mt.BufHits + mt.BufMisses
}

// TestBmapWalk drives the one walker over a direct, a single-indirect
// and a double-indirect block, each first as a hole and then allocated,
// with alloc off and on: (pblk, fresh) must say what the call found or
// made, a walk must read one pointer block per level below the inode,
// and clearPtr must hand back the pointer it cleared.
func TestBmapWalk(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/sparse", kernel.OCreat|kernel.ORdWr)
		ip := fl.ip
		ppb := f.ptrsPerBlock()
		ip.lock(ctx)
		defer ip.unlock()
		for _, tc := range []struct {
			name   string
			lblk   int64
			levels int64 // pointer blocks between the inode and the data block
		}{
			{"direct", 3, 0},
			{"single-indirect", NDirect + 5, 1},
			{"double-indirect", NDirect + ppb + ppb + 7, 2},
		} {
			bmap := func(alloc bool) (uint32, bool) {
				t.Helper()
				before := r.lookups()
				pblk, fresh, err := ip.bmap(ctx, tc.lblk, alloc, false)
				if err != nil {
					t.Fatalf("%s: bmap(alloc=%v): %v", tc.name, alloc, err)
				}
				// An allocating walk also looks up each pointer block it
				// creates (allocPtrBlock's Getblk); count settled walks.
				if got := r.lookups() - before; pblk != 0 && !fresh && got != tc.levels {
					t.Errorf("%s: bmap(alloc=%v) made %d cache lookups, want %d", tc.name, alloc, got, tc.levels)
				}
				return pblk, fresh
			}
			free := f.Super().FreeBlocks
			if pblk, fresh := bmap(false); pblk != 0 || fresh {
				t.Errorf("%s: hole without alloc = (%d, %v), want (0, false)", tc.name, pblk, fresh)
			}
			if f.Super().FreeBlocks != free {
				t.Errorf("%s: mapping a hole without alloc allocated", tc.name)
			}
			pblk, fresh := bmap(true)
			if pblk == 0 || !fresh {
				t.Fatalf("%s: hole with alloc = (%d, %v), want (block, true)", tc.name, pblk, fresh)
			}
			if used := free - f.Super().FreeBlocks; used != uint32(1+tc.levels) {
				t.Errorf("%s: allocating took %d blocks, want %d", tc.name, used, 1+tc.levels)
			}
			for _, alloc := range []bool{false, true} {
				if got, fresh := bmap(alloc); got != pblk || fresh {
					t.Errorf("%s: allocated, alloc=%v = (%d, %v), want (%d, false)", tc.name, alloc, got, fresh, pblk)
				}
			}
			if old, err := ip.clearPtr(ctx, tc.lblk); err != nil || old != pblk {
				t.Errorf("%s: clearPtr = (%d, %v), want (%d, nil)", tc.name, old, err, pblk)
			}
			if got, _ := bmap(false); got != 0 {
				t.Errorf("%s: after clearPtr bmap = %d, want a hole", tc.name, got)
			}
			if old, err := ip.clearPtr(ctx, tc.lblk); err != nil || old != 0 {
				t.Errorf("%s: clearPtr of a hole = (%d, %v), want (0, nil)", tc.name, old, err)
			}
			if err := f.freeBlock(ctx, pblk); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestFreshBlockMappedOnce: the destination of a splice and a write
// fault learn that a block past NDirect is fresh from the walk that
// allocates it, not from a probe walk first. Giving the hole a block
// then costs two cache lookups — the pointer block once and the
// allocator's bitmap block — where a probe walk makes it three; the
// write fault takes a third, the fresh block's own buffer, which it
// holds as the page.
func TestFreshBlockMappedOnce(t *testing.T) {
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/once", kernel.OCreat|kernel.ORdWr)
		// One block in the single-indirect range, so the pointer block
		// exists and each later mapping of a hole below it reads it.
		if _, err := fl.Write(ctx, pattern(testBlockSize, 1), NDirect*testBlockSize); err != nil {
			t.Fatal(err)
		}
		before := r.lookups()
		table, fresh, err := fl.SpliceMapWrite(ctx, NDirect+1, NDirect+2)
		if err != nil || table[0] == 0 || !fresh[0] {
			t.Fatalf("SpliceMapWrite = %v %v %v", table, fresh, err)
		}
		if got := r.lookups() - before; got != 2 {
			t.Errorf("SpliceMapWrite of one fresh block made %d cache lookups, want 2", got)
		}
		before = r.lookups()
		blk, fr, err := fl.PageIn(ctx, NDirect+2, true)
		if err != nil || blk == 0 || !fr {
			t.Fatalf("PageIn(alloc) = %d %v %v", blk, fr, err)
		}
		if got := r.lookups() - before; got != 3 {
			t.Errorf("PageIn(alloc) of a fresh block made %d cache lookups, want 3", got)
		}
		fl.PageRelease(ctx, blk, false)
		_ = fl.Close(ctx)
	})
}
