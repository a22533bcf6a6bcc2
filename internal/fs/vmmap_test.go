package fs

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
)

// recordingPager is a test double for the vm.Pool side of the fs↔vm
// seam: it records PageoutObject calls and can inject failures.
type recordingPager struct {
	calls []uint32
	dirty map[string][]uint32
	err   error
}

func (rp *recordingPager) PageoutObject(ctx kernel.Ctx, dev string, ino uint32) error {
	rp.calls = append(rp.calls, ino)
	return rp.err
}

func (rp *recordingPager) DirtyInos(dev string) []uint32 { return rp.dirty[dev] }

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

func TestPagerHookAccessors(t *testing.T) {
	r := newRig(t, 256)
	r.run(t, func(p *kernel.Proc, f *FS) {
		if f.Pager() != nil {
			t.Error("fresh mount has a pager")
		}
		rp := &recordingPager{}
		f.SetPager(rp)
		if f.Pager() != Pager(rp) {
			t.Error("SetPager not reflected by Pager()")
		}
	})
}

func TestSyncCallsPageoutObject(t *testing.T) {
	r := newRig(t, 256)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		rp := &recordingPager{dirty: map[string][]uint32{}}
		f.SetPager(rp)
		fl := openF(t, ctx, f, "/p.dat", kernel.OCreat|kernel.ORdWr)
		if _, err := fl.Write(ctx, pattern(100, 1), 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := fl.Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		want := fl.Inode().Ino()
		if len(rp.calls) != 1 || rp.calls[0] != want {
			t.Errorf("fsync pageout calls = %v, want [%d]", rp.calls, want)
		}
		// A pager failure fails the fsync before any metadata flush.
		rp.err = kernel.ErrIO
		if err := fl.Sync(ctx); err != kernel.ErrIO {
			t.Errorf("sync with failing pager = %v, want ErrIO", err)
		}
		rp.err = nil
		_ = fl.Close(ctx)

		// SyncAll pages out every inode the pool reports dirty.
		rp.calls = nil
		rp.dirty[r.d.DevName()] = []uint32{want}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatalf("syncall: %v", err)
		}
		if len(rp.calls) != 1 || rp.calls[0] != want {
			t.Errorf("SyncAll pageout calls = %v, want [%d]", rp.calls, want)
		}
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
		got := make([]byte, testBlockSize)
		if blk, _, err := fl.PageIn(ctx, 0, got, false); err != nil || blk == 0 {
			t.Fatalf("pagein after close: blk=%d err=%v", blk, err)
		}
		if !bytes.Equal(got, data[:testBlockSize]) {
			t.Error("pagein content wrong")
		}
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
		page := pattern(testBlockSize, 13) // stale contents must be overwritten
		blk, _, err := fl.PageIn(ctx, 1, page, false)
		if err != nil || blk != 0 {
			t.Fatalf("pagein hole: blk=%d err=%v", blk, err)
		}
		for i, b := range page {
			if b != 0 {
				t.Fatalf("hole page[%d] = %d, want 0", i, b)
			}
		}
		// alloc=true gives the hole a block as splice's bmap would: fresh,
		// dst untouched, and no buffer — least of all a delayed write —
		// enters the cache for it.
		copy(page, pattern(testBlockSize, 13))
		blk, fresh, err := fl.PageIn(ctx, 1, page, true)
		if err != nil || blk == 0 || !fresh {
			t.Fatalf("pagein alloc: blk=%d fresh=%v err=%v", blk, fresh, err)
		}
		if !bytes.Equal(page, pattern(testBlockSize, 13)) {
			t.Error("pagein alloc touched dst")
		}
		if r.c.Peek(r.d, blk) != nil {
			t.Error("pagein alloc left a buffer for the fresh block in the cache")
		}
		// A second pagein sees the same block, no new allocation, and
		// reads it: it is an ordinary block from here on.
		blk2, fresh, err := fl.PageIn(ctx, 1, page, false)
		if err != nil || blk2 != blk || fresh {
			t.Fatalf("pagein again: blk=%d want %d fresh=%v err=%v", blk2, blk, fresh, err)
		}
		_ = fl.Close(ctx)
	})
}

func TestPageOutFlushRoundTrip(t *testing.T) {
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
		blk, _, err := fl.PageIn(ctx, 0, make([]byte, testBlockSize), true)
		if err != nil || blk == 0 {
			t.Fatalf("pagein alloc: blk=%d err=%v", blk, err)
		}
		if err := fl.PageOut(ctx, blk, data); err != nil {
			t.Fatalf("pageout: %v", err)
		}
		if err := fl.PageFlush(ctx); err != nil {
			t.Fatalf("pageflush: %v", err)
		}
		got := make([]byte, len(data))
		if n, err := fl.Read(ctx, got, 0); err != nil || n != len(data) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Error("paged-out data not visible to read()")
		}
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
