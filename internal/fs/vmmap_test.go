package fs

import (
	"bytes"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/trace"
)

// openF opens path and narrows the kernel.FileOps result to the
// concrete *File, which carries the VM backing methods.
func openF(t *testing.T, ctx kernel.Ctx, f *FS, path string, flags int) *File {
	t.Helper()
	fo, err := f.OpenFile(ctx, path, flags)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return fo.(*File)
}

// TestSyncWritesHeldBuffers: a store through a page makes its held
// buffer a delayed write, and fsync and SyncAll write it like any other
// — the page keeps its buffer through both.
func TestSyncWritesHeldBuffers(t *testing.T) {
	r := newRig(t, 256)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/p.dat", kernel.OCreat|kernel.ORdWr)
		if _, err := fl.Write(ctx, pattern(testBlockSize, 1), 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fl.Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		blk, _, err := fl.PageIn(ctx, 0, false)
		if err != nil || blk == 0 {
			t.Fatalf("pagein: blk=%d err=%v", blk, err)
		}
		for i, sync := range []func() error{
			func() error { return fl.Sync(ctx) },
			func() error { return f.SyncAll(ctx) },
		} {
			clean := fl.PageStore(ctx, blk, 0, []byte{byte(10 + i)})
			if again := fl.PageStore(ctx, blk, 0, []byte{byte(10 + i)}); !clean || again {
				t.Fatalf("sync %d: PageStore: want true for a clean page, then false", i)
			}
			writes := r.metrics().EventCount[trace.KindDiskWrite]
			if err := sync(); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
			if r.metrics().EventCount[trace.KindDiskWrite] == writes || r.c.Peek(r.d, blk).Flags&buf.BDelwri != 0 {
				t.Errorf("sync %d left the held buffer unwritten", i)
			}
			if held := fl.PageBuffer(blk); len(held) == 0 || held[0] != byte(10+i) {
				t.Fatalf("sync %d took the buffer from its page", i)
			}
		}
		fl.PageRelease(ctx, blk, false)
		if fl.PageBuffer(blk) != nil {
			t.Error("released buffer still held")
		}
		_ = fl.Close(ctx)
	})
}

func TestMapRefKeepsInodeAcrossClose(t *testing.T) {
	r := newRig(t, 256)
	data := pattern(testBlockSize+50, 7)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/m.dat", kernel.OCreat|kernel.ORdWr)
		if _, err := fl.Write(ctx, data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		dev, ino := fl.MapKey()
		if dev != r.d.DevName() || ino == 0 {
			t.Errorf("MapKey = %q/%d", dev, ino)
		}
		if sz, err := fl.Size(ctx); err != nil || sz != int64(len(data)) {
			t.Errorf("Size = %d, %v", sz, err)
		}
		fl.MapRef(ctx)
		if err := fl.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		// The mapping reference keeps the backing usable after close.
		blk, _, err := fl.PageIn(ctx, 0, false)
		if err != nil || blk == 0 {
			t.Fatalf("pagein after close: blk=%d err=%v", blk, err)
		}
		if !bytes.Equal(fl.PageBuffer(blk), data[:testBlockSize]) {
			t.Error("pagein content wrong")
		}
		fl.PageRelease(ctx, blk, false)
		if err := fl.MapUnref(ctx); err != nil {
			t.Fatalf("unref: %v", err)
		}
	})
}

func TestPageInHoleAndAlloc(t *testing.T) {
	r := newRig(t, 256)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/h.dat", kernel.OCreat|kernel.ORdWr)
		// Block 3 written, blocks 0–2 are a hole.
		if _, err := fl.Write(ctx, pattern(100, 9), 3*testBlockSize); err != nil {
			t.Fatalf("write: %v", err)
		}
		if blk, _, err := fl.PageIn(ctx, 1, false); err != nil || blk != 0 || &fl.PageBuffer(blk)[0] != &r.c.ZeroBlock()[0] {
			t.Fatalf("pagein hole: blk=%d err=%v, or a hole page reads other than the zero block", blk, err)
		}
		// alloc=true gives the hole a block as splice's bmap would: fresh,
		// read from nowhere, its buffer zeroed and held dirty from birth.
		reads := r.metrics().EventCount[trace.KindDiskRead]
		blk, fresh, err := fl.PageIn(ctx, 1, true)
		if err != nil || blk == 0 || !fresh {
			t.Fatalf("pagein alloc: blk=%d fresh=%v err=%v", blk, fresh, err)
		}
		data := fl.PageBuffer(blk)
		if r.metrics().EventCount[trace.KindDiskRead] != reads || !bytes.Equal(data, make([]byte, testBlockSize)) {
			t.Error("pagein alloc read the block or left its buffer unzeroed")
		}
		if b := r.c.Peek(r.d, blk); b == nil || b.Flags&(buf.BHeld|buf.BDelwri) != buf.BHeld|buf.BDelwri || &b.Data[0] != &data[0] {
			t.Fatalf("pagein alloc: the page is not its block's held delayed write (%v)", b)
		}
		// Let go, then page in again: the same block, no new allocation,
		// and a cache hit on the buffer the first pagein left.
		fl.PageRelease(ctx, blk, false)
		blk2, fresh, err := fl.PageIn(ctx, 1, false)
		if err != nil || blk2 != blk || fresh || &fl.PageBuffer(blk2)[0] != &data[0] {
			t.Fatalf("pagein again: blk=%d want %d fresh=%v err=%v", blk2, blk, fresh, err)
		}
		fl.PageRelease(ctx, blk2, false)
		_ = fl.Close(ctx)
	})
}

// TestPageDirtyFlushRoundTrip: a store into a held page is read()'s data
// at once, and PageFlush makes it durable like fsync.
func TestPageDirtyFlushRoundTrip(t *testing.T) {
	r := newRig(t, 256)
	data := pattern(testBlockSize, 21)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		fl := openF(t, ctx, f, "/w.dat", kernel.OCreat|kernel.ORdWr)
		fl.Extend(ctx, testBlockSize)
		if sz, _ := fl.Size(ctx); sz != testBlockSize {
			t.Fatalf("Extend: size = %d", sz)
		}
		// Extend never shrinks.
		fl.Extend(ctx, 10)
		if sz, _ := fl.Size(ctx); sz != testBlockSize {
			t.Fatalf("Extend shrank to %d", sz)
		}
		blk, _, err := fl.PageIn(ctx, 0, true)
		if err != nil || blk == 0 {
			t.Fatalf("pagein alloc: blk=%d err=%v", blk, err)
		}
		fl.PageStore(ctx, blk, 0, data)
		got := make([]byte, len(data))
		if n, err := fl.Read(ctx, got, 0); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("read before any flush: n=%d err=%v, stored data visible=%v", n, err, bytes.Equal(got, data))
		}
		if err := fl.PageFlush(ctx); err != nil {
			t.Fatalf("pageflush: %v", err)
		}
		fl.PageRelease(ctx, blk, false)
		_ = fl.Close(ctx)

		// PageFlush durability: the data survives a crash, like fsync.
		r.d.Crash()
		r.c.Crash(r.d)
		fl2 := openF(t, ctx, f, "/w.dat", kernel.ORdOnly)
		got = make([]byte, len(data))
		if n, err := fl2.Read(ctx, got, 0); err != nil || n != len(data) {
			t.Fatalf("read after crash: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Error("page-flushed data lost in crash")
		}
		_ = fl2.Close(ctx)
	})
}
