package disk

import (
	"slices"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

func newRig(p Params) (*kernel.Kernel, *buf.Cache, *Disk) {
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 600 * sim.Second
	k := kernel.New(cfg)
	c := buf.NewCache(k, 64, p.BlockSize)
	d := New(k, p)
	d.SetCache(c)
	return k, c, d
}

func run(t *testing.T, k *kernel.Kernel, fn func(p *kernel.Proc)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRAMDiskRoundTrip(t *testing.T) {
	k, c, d := newRig(RAMDisk(2048, 8192))
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := c.Getblk(ctx, d, 10)
		for i := range c.Store(b, true) {
			b.Data[i] = byte(i)
		}
		if err := c.Bwrite(ctx, b); err != nil {
			t.Errorf("bwrite: %v", err)
		}
		if err := c.InvalidateDev(ctx, d); err != nil {
			t.Errorf("invalidate: %v", err)
		}
		rb, err := c.Bread(ctx, d, 10)
		if err != nil {
			t.Errorf("bread: %v", err)
			return
		}
		for i := 0; i < 8192; i++ {
			if rb.Data[i] != byte(i) {
				t.Errorf("byte %d = %d, want %d", i, rb.Data[i], byte(i))
				return
			}
		}
		c.Brelse(ctx, rb)
	})
}

func TestRAMDiskIsFast(t *testing.T) {
	k, c, d := newRig(RAMDisk(2048, 8192))
	var elapsed sim.Duration
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		t0 := p.Now()
		for blk := int64(0); blk < 100; blk++ {
			b, err := c.Bread(ctx, d, blk)
			if err != nil {
				t.Errorf("bread: %v", err)
				return
			}
			b.Flags |= buf.BAge // force recycle so every read is a miss
			c.Brelse(ctx, b)
			_ = c.InvalidateDev(ctx, d)
		}
		elapsed = p.Now().Sub(t0)
	})
	// 100 blocks at ~0.5ms each: well under 100ms.
	if elapsed > 200*sim.Millisecond {
		t.Fatalf("RAM disk too slow: %v for 100 blocks", elapsed)
	}
}

func TestMechanicalDiskSequentialStreamsNearMediaRate(t *testing.T) {
	k, c, d := newRig(RZ58(4096, 8192))
	const nblocks = 256 // 2MB
	var elapsed sim.Duration
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		t0 := p.Now()
		for blk := int64(0); blk < nblocks; blk++ {
			b, err := c.Bread(ctx, d, blk)
			if err != nil {
				t.Errorf("bread: %v", err)
				return
			}
			b.Flags |= buf.BAge
			c.Brelse(ctx, b)
		}
		elapsed = p.Now().Sub(t0)
	})
	bytes := float64(nblocks * 8192)
	rate := bytes / elapsed.Seconds()
	// Sequential reads with the drive's read-ahead cache should run
	// near (within 2x of) the media rate, and far above what
	// per-request seek+rotation would allow (~0.5MB/s).
	if rate < 1.0e6 {
		t.Fatalf("sequential read rate %.0f B/s; read-ahead cache not effective", rate)
	}
	if rate > 4.2e6 {
		t.Fatalf("sequential read rate %.0f B/s exceeds the bus rate", rate)
	}
	st := d.Stats()
	if st.CacheHits < nblocks/2 {
		t.Fatalf("drive cache hits = %d of %d; read-ahead not working", st.CacheHits, nblocks)
	}
}

func TestRandomReadsSlowerThanSequential(t *testing.T) {
	seq := measureReadPattern(t, false)
	rnd := measureReadPattern(t, true)
	if rnd < 2*seq {
		t.Fatalf("random reads (%v) not much slower than sequential (%v)", rnd, seq)
	}
}

func measureReadPattern(t *testing.T, random bool) sim.Duration {
	t.Helper()
	k, c, d := newRig(RZ56(8192, 8192))
	r := sim.NewRand(7)
	var elapsed sim.Duration
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		t0 := p.Now()
		for i := int64(0); i < 64; i++ {
			blk := i
			if random {
				blk = r.Int63n(8192)
			}
			b, err := c.Bread(ctx, d, blk)
			if err != nil {
				t.Errorf("bread: %v", err)
				return
			}
			b.Flags |= buf.BAge
			c.Brelse(ctx, b)
		}
		elapsed = p.Now().Sub(t0)
	})
	return elapsed
}

func TestSequentialWritesAvoidSeeks(t *testing.T) {
	k, c, d := newRig(RZ58(4096, 8192))
	mt := k.StartTrace(nil).Metrics()
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < 64; blk++ {
			b := c.Getblk(ctx, d, blk)
			if err := c.Bwrite(ctx, b); err != nil {
				t.Errorf("bwrite: %v", err)
				return
			}
		}
	})
	st := d.Stats()
	// First access seeks; the rest are contiguous.
	if st.Seeks > 3 {
		t.Fatalf("sequential writes performed %d seeks", st.Seeks)
	}
	if n := mt.EventCount[trace.KindDiskWrite]; n != 64 {
		t.Fatalf("writes = %d, want 64", n)
	}
}

func TestWriteInvalidatesReadAhead(t *testing.T) {
	k, c, d := newRig(RZ58(4096, 8192))
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, _ := c.Bread(ctx, d, 0) // starts read-ahead segment at 1..
		c.Brelse(ctx, b)
		p.SleepFor(200 * sim.Millisecond) // let streaming fill
		wb := c.Getblk(ctx, d, 5)
		_ = c.Bwrite(ctx, wb) // lands inside the segment
	})
	for i := range d.segments {
		if d.segments[i].valid {
			t.Fatal("write did not invalidate the overlapping read-ahead segment")
		}
	}
}

func TestRZ58FourSegmentsSupportInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams: a 4-segment drive keeps both
	// in cache, a 1-segment drive thrashes.
	hits := func(p Params) int64 {
		k, c, d := newRig(p)
		run(t, k, func(pr *kernel.Proc) {
			ctx := pr.Ctx()
			for i := int64(0); i < 48; i++ {
				for _, base := range []int64{0, 2048} {
					b, err := c.Bread(ctx, d, base+i)
					if err != nil {
						t.Errorf("bread: %v", err)
						return
					}
					b.Flags |= buf.BAge
					c.Brelse(ctx, b)
					_ = c.InvalidateDev(ctx, d)
				}
			}
		})
		return d.Stats().CacheHits
	}
	h58 := hits(RZ58(8192, 8192))
	h56 := hits(RZ56(8192, 8192))
	if h58 <= h56 {
		t.Fatalf("4-segment cache hits (%d) not better than 1-segment (%d) on interleaved streams", h58, h56)
	}
}

// TestDiskQueueCLOOKAndBusyAccounting: writes queued behind one in
// service on a mechanical disk complete in C-LOOK order, not in arrival
// order, and the busy time the trace sums from disk.start is the time
// each request held the drive.
func TestDiskQueueCLOOKAndBusyAccounting(t *testing.T) {
	k, c, d := newRig(RZ58(4096, 8192))
	col := &trace.Collector{}
	mt := k.StartTrace(col).Metrics()
	var order []int64
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		// Block 100 goes into service at once; the rest queue behind it.
		for _, blk := range []int64{100, 50, 300, 10, 200} {
			b := c.Getblk(ctx, d, blk)
			b.Iodone = func(kk *kernel.Kernel, bb *buf.Buf) {
				order = append(order, bb.Blkno)
				c.Brelse(kk.IntrCtx(), bb)
			}
			b.Flags |= buf.BCall
			b.Flags &^= buf.BRead | buf.BDone
			d.Strategy(b)
		}
		p.SleepFor(500 * sim.Millisecond)
	})
	if want := []int64{100, 200, 300, 10, 50}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want C-LOOK's %v", order, want)
	}
	var busy sim.Duration
	var started trace.Event
	for _, ev := range col.Events {
		switch ev.Kind {
		case trace.KindDiskStart:
			started = ev
			busy += sim.Duration(ev.Arg2)
		case trace.KindDiskWrite:
			if held := ev.T.Sub(started.T); ev.Arg1 != started.Arg1 || held != sim.Duration(started.Arg2) {
				t.Errorf("block %d held the drive %v from the start of block %d, which accounted %v",
					ev.Arg1, held, started.Arg1, sim.Duration(started.Arg2))
			}
		}
	}
	if n := mt.EventCount[trace.KindDiskStart]; n != 5 || busy <= 0 {
		t.Fatalf("%d disk.start event(s) summing to %v busy, want 5 and a positive sum", n, busy)
	}
}

func TestDeviceInterruptStealsCPU(t *testing.T) {
	// A compute-bound proc must be measurably delayed by a stream of
	// disk interrupts.
	k, c, d := newRig(RAMDisk(2048, 8192))
	var done sim.Time
	k.Spawn("io", func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < 40; blk++ {
			b := c.Getblk(ctx, d, blk)
			c.Bawrite(ctx, b)
		}
	})
	k.Spawn("cpu", func(p *kernel.Proc) {
		p.Compute(50 * sim.Millisecond)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done <= sim.Time(50*sim.Millisecond) {
		t.Fatalf("compute finished at %v; interrupts stole no time", done)
	}
}

func TestRawAccessHelpers(t *testing.T) {
	k, _, d := newRig(RAMDisk(64, 8192))
	_ = k
	in := make([]byte, 8192)
	for i := range in {
		in[i] = byte(i * 3)
	}
	d.WriteRaw(5, in)
	out := make([]byte, 8192)
	d.ReadRaw(5, out)
	for i := range out {
		if out[i] != in[i] {
			t.Fatalf("raw mismatch at %d", i)
		}
	}
}

func TestParamsPresetsSane(t *testing.T) {
	for _, p := range []Params{RZ56(1024, 8192), RZ58(1024, 8192), RAMDisk(1024, 8192)} {
		if p.Blocks != 1024 || p.BlockSize != 8192 {
			t.Fatalf("%s geometry wrong", p.Name)
		}
		if p.MediaRate <= 0 || p.BusRate <= 0 {
			t.Fatalf("%s rates wrong", p.Name)
		}
	}
	if RZ56(1, 1).MediaRate >= RZ58(1, 1).MediaRate {
		t.Fatal("RZ56 should be slower than RZ58")
	}
}
