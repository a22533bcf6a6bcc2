package buf

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// memDevice is a trivial instantaneous block device for cache tests: it
// completes requests on the next engine event with a fixed latency.
type memDevice struct {
	k       *kernel.Kernel
	c       *Cache
	name    string
	bsize   int
	blocks  int64
	data    []byte
	latency sim.Duration
	nreads  int
	nwrites int
	// shared stands in for a platter that shares blocks (PlatterBlock):
	// this device copies, so it is nil but in a planted fault.
	shared map[int64]*sim.Block
}

func newMemDevice(k *kernel.Kernel, name string, blocks int64, bsize int, latency sim.Duration) *memDevice {
	return &memDevice{
		k: k, name: name, bsize: bsize, blocks: blocks,
		data:    make([]byte, blocks*int64(bsize)),
		latency: latency,
	}
}

func (d *memDevice) DevName() string   { return d.name }
func (d *memDevice) DevBlockSize() int { return d.bsize }
func (d *memDevice) DevBlocks() int64  { return d.blocks }

func (d *memDevice) PlatterBlock(blkno int64) *sim.Block { return d.shared[blkno] }

func (d *memDevice) Strategy(b *Buf) {
	d.k.Hold()
	d.k.Engine().Schedule(d.latency, "memdev", func() {
		off := b.Blkno * int64(d.bsize)
		if b.Flags&BRead != 0 {
			copy(d.c.Store(b, b.Bcount == d.bsize)[:b.Bcount], d.data[off:])
			d.nreads++
		} else {
			copy(d.data[off:off+int64(b.Bcount)], b.Data[:b.Bcount])
			d.nwrites++
		}
		d.k.Interrupt(func() { d.c.Biodone(b) })
		d.k.Release()
	})
}

type fixture struct {
	k   *kernel.Kernel
	c   *Cache
	dev *memDevice
}

func newFixture(nbuf int) *fixture {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 120 * sim.Second
	k := kernel.New(cfg)
	c := NewCache(k, nbuf, 8192)
	dev := newMemDevice(k, "mem0", 1024, 8192, 2*sim.Millisecond)
	dev.c = c
	return &fixture{k: k, c: c, dev: dev}
}

// metrics starts the kernel's trace, which counts the cache's lookups,
// readahead and flushes; call it before the run.
func (f *fixture) metrics() *trace.Metrics { return f.k.StartTrace(nil).Metrics() }

// runProc runs fn as a single process to completion.
func (f *fixture) runProc(t testing.TB, fn func(p *kernel.Proc)) {
	t.Helper()
	f.k.Spawn("test", fn)
	if err := f.k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
}

func TestBreadMissThenHit(t *testing.T) {
	f := newFixture(16)
	mt := f.metrics()
	for i := range f.dev.data[:8192] {
		f.dev.data[i] = byte(i % 251)
	}
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := f.c.Bread(ctx, f.dev, 0)
		if err != nil {
			t.Errorf("bread: %v", err)
			return
		}
		if b.Data[100] != byte(100%251) {
			t.Errorf("read data wrong: %d", b.Data[100])
		}
		f.c.Brelse(ctx, b)

		before := f.dev.nreads
		b2, err := f.c.Bread(ctx, f.dev, 0)
		if err != nil {
			t.Errorf("bread 2: %v", err)
			return
		}
		if f.dev.nreads != before {
			t.Error("second bread hit the device; expected cache hit")
		}
		if b2 != b {
			t.Error("cache hit returned a different buffer")
		}
		f.c.Brelse(ctx, b2)
	})
	if mt.BufHits != 1 || mt.BufMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", mt.BufHits, mt.BufMisses)
	}
}

func TestBwriteRoundTrip(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 7)
		for i := range f.c.Store(b, true) {
			b.Data[i] = 0xAB
		}
		if err := f.c.Bwrite(ctx, b); err != nil {
			t.Errorf("bwrite: %v", err)
		}
		if f.dev.data[7*8192] != 0xAB || f.dev.data[8*8192-1] != 0xAB {
			t.Error("bwrite did not reach the device")
		}
	})
}

func TestBdwriteDefersDeviceIO(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 3)
		f.c.Store(b, false)[0] = 0x55
		f.c.Bdwrite(ctx, b)
		if f.dev.nwrites != 0 || b.Flags&BDelwri == 0 {
			t.Error("bdwrite did not leave a delayed write")
		}
		// A flush must push it out.
		n, err := f.c.FlushDev(ctx, f.dev)
		if err != nil || n != 1 {
			t.Errorf("flush: n=%d err=%v", n, err)
		}
		if f.dev.data[3*8192] != 0x55 {
			t.Error("flushed data missing on device")
		}
	})
}

func TestDelayedWritePushedOnRecycle(t *testing.T) {
	f := newFixture(4) // tiny cache forces recycling
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 0)
		f.c.Store(b, false)[0] = 0x77
		f.c.Bdwrite(ctx, b)
		// Touch enough other blocks to force the dirty buffer out.
		for blk := int64(1); blk <= 8; blk++ {
			nb, err := f.c.Bread(ctx, f.dev, blk)
			if err != nil {
				t.Errorf("bread %d: %v", blk, err)
				return
			}
			f.c.Brelse(ctx, nb)
		}
		if f.dev.data[0] != 0x77 {
			t.Error("recycling did not push the delayed write to the device")
		}
	})
}

func TestBusyBufferWait(t *testing.T) {
	f := newFixture(16)
	var order []string
	holder := func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 5)
		p.Compute(20 * sim.Millisecond) // hold it busy a while
		order = append(order, "holder-release")
		f.c.Brelse(ctx, b)
	}
	waiter := func(p *kernel.Proc) {
		p.Compute(sim.Millisecond) // let holder get there first
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 5)
		order = append(order, "waiter-got")
		f.c.Brelse(ctx, b)
	}
	f.k.Spawn("holder", holder)
	f.k.Spawn("waiter", waiter)
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "holder-release" || order[1] != "waiter-got" {
		t.Fatalf("order = %v", order)
	}
}

// TestFlushBlocksWaitsOutBusyDelayedWrite: a delayed write another
// process holds busy (as across a read() copyout) when fsync looks is
// waited out and written before FlushBlocks returns, not skipped.
func TestFlushBlocksWaitsOutBusyDelayedWrite(t *testing.T) {
	f := newFixture(16)
	mt := f.metrics()
	f.k.Spawn("holder", func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 5)
		f.c.Store(b, false)[0] = 0x5A
		b.SpliceDesc = "desc" // a splice held it once; the release ends that
		f.c.Bdwrite(ctx, b)
		b = f.c.Getblk(ctx, f.dev, 5) // a hit: still a delayed write, now busy
		p.SleepFor(50 * sim.Millisecond)
		f.c.Brelse(ctx, b)
	})
	var n, writes int
	f.k.Spawn("fsync", func(p *kernel.Proc) {
		p.SleepFor(10 * sim.Millisecond)
		var err error
		if n, err = f.c.FlushBlocks(p.Ctx(), f.dev, []int64{5}); err != nil {
			t.Errorf("FlushBlocks: %v", err)
		}
		writes = f.dev.nwrites
	})
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 || writes != 1 || f.dev.data[5*8192] != 0x5A {
		t.Errorf("FlushBlocks over a busy delayed write returned %d with %d device write(s), want 1 and 1", n, writes)
	}
	// The first pass's empty batch and the one that wrote the block; the
	// pass after the wait writes nothing more and so counts no flush.
	if got := mt.EventCount[trace.KindBufFlush]; got != 2 {
		t.Errorf("%d flushes counted, want 2", got)
	}
}

// TestFlushBlocksWaitsOnlyForWhatItOwes: FlushBlocks waits out a busy
// block only when its durability is fsync's — a write in flight, whose
// failure it must latch — and passes a busy clean block, and any block
// a splice holds: the splice lets go when its peer moves, which may be
// the caller itself, later.
func TestFlushBlocksWaitsOnlyForWhatItOwes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hold   func(p *kernel.Proc, f *fixture) // at 0 ms; FlushBlocks runs at 10 ms
		wait   bool                             // FlushBlocks returns only once the write ends, at 11 ms
		writes int
	}{
		{"write in flight", func(p *kernel.Proc, f *fixture) {
			p.SleepFor(9 * sim.Millisecond)
			b := f.c.Getblk(p.Ctx(), f.dev, 5)
			f.c.Bawrite(p.Ctx(), b) // the device takes 2 ms
		}, true, 1},
		{"clean block held busy", func(p *kernel.Proc, f *fixture) {
			b, _ := f.c.Bread(p.Ctx(), f.dev, 5)
			p.SleepFor(50 * sim.Millisecond)
			f.c.Brelse(p.Ctx(), b)
		}, false, 0},
		{"delayed write a splice holds", func(p *kernel.Proc, f *fixture) {
			ctx := p.Ctx()
			b := f.c.Getblk(ctx, f.dev, 5)
			f.c.Bdwrite(ctx, b)
			b = f.c.Getblk(ctx, f.dev, 5)
			b.SpliceDesc = "desc"
			p.SleepFor(50 * sim.Millisecond)
			f.c.Brelse(ctx, b)
		}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(16)
			mt := f.metrics()
			f.k.Spawn("holder", func(p *kernel.Proc) { tc.hold(p, f) })
			var writes int
			var at sim.Duration
			f.k.Spawn("fsync", func(p *kernel.Proc) {
				p.SleepFor(10 * sim.Millisecond)
				if n, err := f.c.FlushBlocks(p.Ctx(), f.dev, []int64{5}); n != 0 || err != nil {
					t.Errorf("FlushBlocks = %d, %v, want 0, nil", n, err)
				}
				writes, at = f.dev.nwrites, f.k.Now().Sub(0)
			})
			if err := f.k.Run(); err != nil {
				t.Fatal(err)
			}
			if waited := at >= 11*sim.Millisecond; waited != tc.wait || writes != tc.writes {
				t.Errorf("FlushBlocks returned at %v with %d device write(s), want wait=%v and %d", at, writes, tc.wait, tc.writes)
			}
			if got := mt.EventCount[trace.KindBufFlush]; got != 1 {
				t.Errorf("%d flushes counted, want 1", got)
			}
		})
	}
}

func TestGetblkNBWouldBlockOnBusy(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 9)
		_, wchan, err := f.c.GetblkNB(f.k.IntrCtx(), f.dev, 9)
		if err != kernel.ErrWouldBlock || wchan != any(b) || b.Flags&BWanted == 0 {
			t.Errorf("GetblkNB on busy buffer: err=%v, wchan=%v, flags %s; want ErrWouldBlock, the buffer, BWanted", err, wchan, b)
		}
		f.c.Brelse(ctx, b)
		if b.Flags&BWanted != 0 {
			t.Errorf("Brelse left BWanted set: %s", b)
		}
	})
}

func TestFreeListExhaustionBlocks(t *testing.T) {
	f := newFixture(4)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		var held []*Buf
		for blk := int64(0); blk < 4; blk++ {
			held = append(held, f.c.Getblk(ctx, f.dev, blk))
		}
		// Non-blocking path must refuse.
		_, wchan, err := f.c.GetblkNB(f.k.IntrCtx(), f.dev, 100)
		if err != kernel.ErrWouldBlock || wchan != any(&f.c.freeHead) {
			t.Errorf("GetblkNB with exhausted pool: %v on %v, want ErrWouldBlock on the free list", err, wchan)
		}
		// Release one after a delay from a callout; blocking getblk
		// must then succeed.
		f.k.Timeout(func() {
			f.c.Brelse(f.k.IntrCtx(), held[0])
		}, 2)
		b := f.c.Getblk(ctx, f.dev, 100)
		if b == nil {
			t.Error("getblk returned nil after free")
		}
		f.c.Brelse(ctx, b)
		for _, hb := range held[1:] {
			f.c.Brelse(ctx, hb)
		}
	})
}

func TestStartReadInvokesHandler(t *testing.T) {
	f := newFixture(16)
	copy(f.dev.data[2*8192:], []byte{1, 2, 3, 4})
	f.runProc(t, func(p *kernel.Proc) {
		done := false
		var got *Buf
		b, _, err := f.c.ClaimRead(p.Ctx(), f.dev, 2)
		if err != nil {
			t.Errorf("ClaimRead: %v", err)
			return
		}
		hit := f.c.StartRead(b, "desc", 42, func(k *kernel.Kernel, b *Buf) {
			done = true
			got = b
		})
		if hit {
			t.Error("cold StartRead reported a cache hit")
		}
		if done {
			t.Error("handler ran before I/O completed")
		}
		p.SleepFor(10 * sim.Millisecond)
		if !done {
			t.Error("handler never ran")
			return
		}
		if got.SpliceDesc != "desc" || got.SpliceLblk != 42 {
			t.Errorf("splice fields not threaded: %v %d", got.SpliceDesc, got.SpliceLblk)
		}
		if got.Data[0] != 1 || got.Data[3] != 4 {
			t.Error("handler saw wrong data")
		}
		f.c.Brelse(p.Ctx(), got)
	})
}

func TestStartReadCacheHitImmediate(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := f.c.Bread(ctx, f.dev, 4)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		f.c.Brelse(ctx, b)
		ran := false
		b, _, err = f.c.ClaimRead(ctx, f.dev, 4)
		if err != nil {
			t.Fatalf("ClaimRead: %v", err)
		}
		hit := f.c.StartRead(b, nil, 0, func(k *kernel.Kernel, b *Buf) {
			ran = true
			f.c.Brelse(k.IntrCtx(), b)
		})
		if !ran || !hit {
			t.Error("cache-hit StartRead did not invoke handler synchronously")
		}
	})
}

func TestAllocHeaderSharesData(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		src, err := f.c.Bread(ctx, f.dev, 0)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		hdr := f.c.AllocHeader(f.dev, 30)
		if hdr.Bcount != f.c.BlockSize() {
			t.Errorf("header bcount = %d", hdr.Bcount)
		}
		if hdr.Data != nil {
			t.Error("AllocHeader allocated data memory")
		}
		// Alias, as the splice write side does, a block src owns.
		f.c.Store(src, false)
		f.c.Share(hdr, src)
		f.c.Store(src, false)[0] = 0xEE
		if hdr.Data[0] != 0xEE {
			t.Error("aliased header does not share the data area")
		}
		f.c.ReleaseHeader(hdr)
		f.c.Brelse(ctx, src)
	})
}

// TestHeadersComeOffTheEmptyList: a released header is the next one
// handed out, wiped of everything its last user hung on it; released
// headers are handed out once each; releasing one twice is refused; and
// the round trip allocates nothing.
func TestHeadersComeOffTheEmptyList(t *testing.T) {
	f := newFixture(16)
	used := f.c.AllocHeader(f.dev, 7)
	used.Data, used.Err, used.SpliceDesc, used.SpliceLblk, used.SpliceN = make([]byte, 8), kernel.ErrIO, f, 5, 3
	used.SplicePeer, used.Iodone = used, func(*kernel.Kernel, *Buf) {}
	used.Flags |= BError | BCall
	other := f.c.AllocHeader(f.dev, 8)
	f.c.ReleaseHeader(used)
	f.c.ReleaseHeader(other)

	a, b, c := f.c.AllocHeader(f.dev, 30), f.c.AllocHeader(f.dev, 31), f.c.AllocHeader(f.dev, 32)
	if a != other || b != used || c == used || c == other {
		t.Fatalf("headers handed out: %p %p %p, released %p then %p", a, b, c, used, other)
	}
	want := Buf{pool: f.c, Flags: BBusy | BNoMem, Dev: f.dev, Blkno: 31, Bcount: f.c.BlockSize()}
	if b.Flags != want.Flags || b.Dev != want.Dev || b.Blkno != want.Blkno || b.Bcount != want.Bcount ||
		b.Data != nil || b.Err != nil || b.Iodone != nil || b.SpliceDesc != nil || b.SpliceLblk != 0 ||
		b.SpliceN != 0 || b.SplicePeer != nil || b.freeNext != nil {
		t.Fatalf("recycled header carries its last user's state: %+v", b)
	}
	if err := f.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { f.c.ReleaseHeader(f.c.AllocHeader(f.dev, 1)) }); n != 0 {
		t.Fatalf("a header round trip allocated %.1f times, want 0", n)
	}
	f.c.ReleaseHeader(a)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a header twice did not panic")
		}
	}()
	f.c.ReleaseHeader(a)
}

func TestInvalidateDevColdStart(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < 4; blk++ {
			b, err := f.c.Bread(ctx, f.dev, blk)
			if err != nil {
				t.Fatalf("bread: %v", err)
			}
			f.c.Brelse(ctx, b)
		}
		// Dirty one block too.
		b := f.c.Getblk(ctx, f.dev, 2)
		f.c.Store(b, false)[0] = 0x99
		f.c.Bdwrite(ctx, b)

		if err := f.c.InvalidateDev(ctx, f.dev); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		if f.dev.data[2*8192] != 0x99 {
			t.Error("invalidate lost dirty data")
		}
		before := f.dev.nreads
		rb, err := f.c.Bread(ctx, f.dev, 0)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if f.dev.nreads == before {
			t.Error("read after invalidate did not go to the device")
		}
		f.c.Brelse(ctx, rb)
	})
}

func TestBiowaitPropagatesError(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 1)
		b.Flags |= BRead
		// Simulate a failing device completion.
		f.k.Timeout(func() {
			b.Flags |= BError
			b.Err = kernel.ErrNxIO
			f.c.Biodone(b)
		}, 1)
		err := f.c.Biowait(ctx, b)
		if err != kernel.ErrNxIO {
			t.Errorf("biowait err = %v, want ErrNxIO", err)
		}
		f.c.Brelse(ctx, b)
	})
}

func TestBrelseErrorBufferDropsFromCache(t *testing.T) {
	f := newFixture(16)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, f.dev, 1)
		b.Flags |= BError
		f.c.Brelse(ctx, b)
		if got := f.c.Peek(f.dev, 1); got != nil {
			t.Error("errored buffer still cached")
		}
	})
}

func TestCacheLRUOrder(t *testing.T) {
	f := newFixture(4)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		// Fill the cache with 0..3.
		for blk := int64(0); blk < 4; blk++ {
			b, _ := f.c.Bread(ctx, f.dev, blk)
			f.c.Brelse(ctx, b)
		}
		// Touch 0 to make it most-recently-used.
		b, _ := f.c.Bread(ctx, f.dev, 0)
		f.c.Brelse(ctx, b)
		// A new block must evict 1 (the LRU), not 0.
		nb, _ := f.c.Bread(ctx, f.dev, 9)
		f.c.Brelse(ctx, nb)
		if f.c.Peek(f.dev, 0) == nil {
			t.Error("MRU block 0 was evicted")
		}
		if f.c.Peek(f.dev, 1) != nil {
			t.Error("LRU block 1 survived eviction")
		}
	})
}

// TestStatsCounters: the trace counts the cache's lookups, the device
// its transfers, and Stats the buffers recycled for new blocks.
func TestStatsCounters(t *testing.T) {
	f := newFixture(8)
	mt := f.metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < 3; blk++ {
			b, _ := f.c.Bread(ctx, f.dev, blk)
			f.c.Brelse(ctx, b)
		}
		b, _ := f.c.Bread(ctx, f.dev, 0)
		f.c.Brelse(ctx, b)
		wb := f.c.Getblk(ctx, f.dev, 5)
		_ = f.c.Bwrite(ctx, wb)
	})
	if mt.BufMisses != 4 || mt.BufHits != 1 { // 3 reads + 1 write-alloc miss, 1 re-read hit
		t.Fatalf("hits=%d misses=%d, want 1/4", mt.BufHits, mt.BufMisses)
	}
	if f.dev.nreads != 3 || f.dev.nwrites != 1 {
		t.Fatalf("reads=%d writes=%d, want 3/1", f.dev.nreads, f.dev.nwrites)
	}
	if got := f.c.Stats().Recycles; got != 4 {
		t.Fatalf("recycles=%d, want one per miss", got)
	}
}

// TestHeldBufferLifecycle walks a buffer through a mapped page's life:
// held, it outlives a full cache's recycling, read()/write() and the
// flushes use it and hand it back held and whole, InvalidateDev leaves
// it, Crash refuses to run over it, and Unhold frees it — starting its
// delayed write when asked.
func TestHeldBufferLifecycle(t *testing.T) {
	f := newFixture(4)
	check := func(when string) {
		t.Helper()
		if err := f.c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := f.c.Bread(ctx, f.dev, 1)
		if err != nil {
			t.Fatal(err)
		}
		f.c.Hold(ctx, b)
		check("held")
		for blk := int64(2); blk < 10; blk++ {
			rb, _ := f.c.Bread(ctx, f.dev, blk)
			f.c.Brelse(ctx, rb)
		}
		if f.c.Peek(f.dev, 1) != b || f.c.FreeBuffers() != 3 {
			t.Fatalf("held buffer recycled (peek %v, %d free)", f.c.Peek(f.dev, 1), f.c.FreeBuffers())
		}
		// write() takes the held buffer and gives it back held, its whole
		// block valid again after a partial transfer's count.
		if wb := f.c.Getblk(ctx, f.dev, 1); wb != b {
			t.Fatal("Getblk missed the held buffer")
		}
		b.Bcount = 100
		data := f.c.Store(b, false)
		data[0], data[200] = 7, 7
		f.c.Bdwrite(ctx, b)
		check("written")
		if b.Bcount != 8192 {
			t.Fatalf("released held buffer kept a transfer count of %d", b.Bcount)
		}
		if n, err := f.c.FlushDev(ctx, f.dev); n != 1 || err != nil || f.dev.data[8192] != 7 || f.dev.data[8192+200] != 7 {
			t.Fatalf("FlushDev = %d, %v; device holds %d and %d", n, err, f.dev.data[8192], f.dev.data[8192+200])
		}
		if b.Flags&(BHeld|BDelwri) != BHeld || f.c.FreeBuffers() != 3 {
			t.Fatalf("after the flush: %s, %d free", b, f.c.FreeBuffers())
		}
		if !f.c.Dirty(ctx, b, 0, nil) {
			t.Fatal("Dirty: want true for a clean buffer")
		}
		if f.c.Dirty(ctx, b, 0, []byte{8}) {
			t.Fatal("Dirty: want false for a dirty buffer")
		}
		if err := f.c.InvalidateDev(ctx, f.dev); err != nil || f.c.Peek(f.dev, 1) != b || f.dev.data[8192] != 8 {
			t.Fatalf("InvalidateDev: %v; want the held buffer written and kept", err)
		}
		check("invalidated")
		f.c.Dirty(ctx, b, 0, []byte{9})
		// A power cut with a page mapped is a harness error, like one with
		// a transfer in flight: Crash panics before discarding anything.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Crash over a held buffer did not panic")
				}
			}()
			f.c.Crash(f.dev)
		}()
		if f.c.Peek(f.dev, 1) != b || b.Flags&(BHeld|BDelwri) != BHeld|BDelwri {
			t.Fatalf("the refused Crash changed the held buffer: %s", b)
		}
		f.c.Unhold(ctx, b, true)
		p.SleepFor(10 * sim.Millisecond)
		if f.dev.data[8192] != 9 || f.c.FreeBuffers() != 4 || b.Flags&BDelwri != 0 {
			t.Fatalf("Unhold(write): device holds %d, %d free, %s", f.dev.data[8192], f.c.FreeBuffers(), b)
		}
		check("unheld")
		// A fresh block's page is held dirty from birth; letting it go
		// without the write leaves an ordinary delayed write.
		nb := f.c.Getblk(ctx, f.dev, 20)
		f.c.Hold(ctx, nb)
		if clean := f.c.Dirty(ctx, nb, 0, nil); !clean || nb.Flags&(BHeld|BDelwri|BDone) != BHeld|BDelwri|BDone {
			t.Fatalf("fresh block held dirty: %s", nb)
		}
		f.c.Unhold(ctx, nb, false)
		if nb.Flags&BDelwri == 0 || f.c.FreeBuffers() != 4 {
			t.Fatalf("Unhold: %s, %d free", nb, f.c.FreeBuffers())
		}
		check("released dirty")
	})
}
