package splice

import (
	"bytes"
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// pipes registers two in-kernel pipes, /dev/p1 and /dev/p2.
func pipes(m *machine) {
	dev.NewPipe(m.k, "/dev/p1", 64<<10)
	dev.NewPipe(m.k, "/dev/p2", 64<<10)
}

func TestZeroLengthTransfers(t *testing.T) {
	// Every pairing treats size 0 alike: (0, nil), no live descriptor —
	// and no kernel hold, or the machine would idle into its watchdog.
	m := newMachine(t, disk.RAMDisk)
	pipes(m)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 2*bsize, 1)
		file, _ := p.Open("/d0/src", kernel.ORdOnly)
		out, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
		pout, _ := p.Open("/dev/p2", kernel.ORdOnly)
		for _, pair := range []struct {
			name     string
			src, dst int
		}{{"file-file", file, out}, {"file-sink", file, pin}, {"source-sink", pout, pin}, {"source-file", pout, out}} {
			n, h, err := SpliceOpts(p, pair.src, pair.dst, 0, Options{})
			if n != 0 || err != nil {
				t.Errorf("%s: zero-length splice = (%d, %v), want (0, nil)", pair.name, n, err)
			} else if !h.Done() || h.Err() != nil {
				t.Errorf("%s: zero-length splice not complete: done=%v err=%v", pair.name, h.Done(), h.Err())
			}
			if err := m.k.CheckDrained(); err != nil {
				t.Errorf("%s: zero-length splice left a live descriptor: %v", pair.name, err)
			}
		}
	})
}

func TestAsyncFileToFileAdvancesOffsets(t *testing.T) {
	// An async splice consumes its whole size from both descriptors at
	// setup, whatever the destination is.
	m := newMachine(t, disk.RAMDisk)
	const size = 3*bsize + 10
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", size, 2)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		for _, fd := range []int{src, dst} {
			if off, _ := p.Lseek(fd, 0, kernel.SeekCur); off != size {
				t.Errorf("fd %d offset %d after async splice, want %d", fd, off, size)
			}
		}
		if err := h.Wait(p); err != nil {
			t.Fatalf("wait: %v", err)
		}
	})
}

func TestSourceToFileOnSynchronousDevice(t *testing.T) {
	// A RAM disk completes each staged block's write inside Strategy. A
	// chunk that straddles a block boundary must still land whole and in
	// order: the write handler running mid-chunk may neither start the
	// next source read nor settle the transfer.
	m := newMachine(t, disk.RAMDisk)
	pipes(m)
	const size = 3000 + 4*bsize
	m.run(t, func(p *kernel.Proc) {
		want := makeRef(size, 9)
		pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
		pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(pout, kernel.FSetFL, kernel.FAsync)
		_, _ = p.Write(pin, want[:3000]) // leaves every later chunk off the block grid
		_, h, err := SpliceOpts(p, pout, dst, size, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		_, _ = p.Write(pin, want[3000:])
		if err := h.Wait(p); err != nil || h.Moved() != size {
			t.Fatalf("moved %d of %d, err %v", h.Moved(), size, err)
		}
		_ = p.Close(dst)
		if got := readAll(t, p, "/d1/dst"); !bytes.Equal(got, want) {
			t.Fatal("pipe→file splice on a RAM disk corrupted data")
		}

		// A synchronous caller whose transfer finishes while being primed
		// still has its offset advanced.
		_, _ = p.Write(pin, want[:2*bsize])
		dst2, _ := p.Open("/d1/dst2", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(pout, kernel.FSetFL, 0)
		n, err := Splice(p, pout, dst2, 2*bsize)
		off, _ := p.Lseek(dst2, 0, kernel.SeekCur)
		if n != 2*bsize || err != nil || off != 2*bsize {
			t.Fatalf("synchronous splice = (%d, %v), offset %d; want %d bytes and offset", n, err, off, 2*bsize)
		}
	})
}

// violates reports whether err names the given invariant.
func violates(err error, name string) bool { return kernel.ViolationName(err) == name }

func TestDamageTripsInvariants(t *testing.T) {
	// One corruption of a live descriptor per catalog row; each must be
	// reported under exactly its own name, and undoing it must leave the
	// checker clean again.
	m := newMachine(t, disk.RZ56)
	pipes(m)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 40*bsize, 4)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		d, a := h.d, h.d.wr.(*alias)
		for len(a.live) == 0 && !d.done {
			p.SleepFor(sim.Millisecond)
		}
		if len(a.live) == 0 {
			t.Fatal("no write header in flight to corrupt")
		}
		hdr := a.live[0]
		shared := hdr.Data

		// An idle source reader, for the other pending-read bound.
		pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
		pin, _ := p.Open("/dev/p2", kernel.OWrOnly)
		_, _ = p.Fcntl(pout, kernel.FSetFL, kernel.FAsync)
		_, hs, err := SpliceOpts(p, pout, pin, EOF, Options{})
		if err != nil {
			t.Fatalf("pipe splice: %v", err)
		}

		for _, dmg := range []struct {
			name       string
			do, revert func()
		}{
			{"splice-pending-neg", func() { d.pendingWrites -= 100 }, func() { d.pendingWrites += 100 }},
			{"splice-pending-bound", func() { d.pendingReads += 100 }, func() { d.pendingReads -= 100 }},
			{"splice-pending-bound", func() { d.pendingWrites += 100 }, func() { d.pendingWrites -= 100 }},
			{"splice-pending-bound", func() { hs.d.pendingReads++ }, func() { hs.d.pendingReads-- }},
			{"splice-moved-bound", func() { d.moved += d.total + 1 }, func() { d.moved -= d.total + 1 }},
			{"splice-hdr-alias", func() { hdr.Data = make([]byte, bsize) }, func() { hdr.Data = shared }},
			{"splice-done-live", func() { d.done = true }, func() { d.done = false }},
		} {
			if err := m.k.CheckInvariants(); err != nil {
				t.Fatalf("dirty before %s damage: %v", dmg.name, err)
			}
			dmg.do()
			if err := m.k.CheckInvariants(); !violates(err, dmg.name) {
				t.Errorf("damage not reported as %s: %v", dmg.name, err)
			}
			dmg.revert()
		}

		// With both descriptors damaged the report is the first
		// registered one's, every time: a replayed failing seed must
		// name the same violation.
		d.moved += d.total + 1
		hs.d.pendingReads++
		for i := 0; i < 20; i++ {
			if err := m.k.CheckInvariants(); !violates(err, "splice-moved-bound") {
				t.Fatalf("check %d with two damaged descriptors: %v, want the first-registered descriptor's splice-moved-bound", i, err)
			}
		}
		d.moved -= d.total + 1
		hs.d.pendingReads--
		if err := m.k.CheckDrained(); !violates(err, "splice-desc-leak") {
			t.Errorf("live descriptors not reported as splice-desc-leak: %v", err)
		}

		hs.d.stop() // the pipe never delivers
		if err := h.Wait(p); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if err := m.k.CheckDrained(); err != nil {
			t.Errorf("after both transfers finished: %v", err)
		}
	})
}

// hogBuffers claims every free cache buffer, for blocks no file uses,
// and returns the function that gives them back.
func hogBuffers(m *machine, p *kernel.Proc) (release func()) {
	for _, d := range m.disks {
		_, _ = m.cache.FlushDev(p.Ctx(), d) // dirty buffers cannot be claimed without sleeping
	}
	var held []*buf.Buf
	for blk := m.disks[0].DevBlocks() - 1; ; blk-- {
		b, err := m.cache.GetblkNB(p.Ctx(), m.disks[0], blk)
		if err != nil {
			break
		}
		held = append(held, b)
	}
	return func() {
		for _, b := range held {
			b.Flags |= buf.BInval
			m.cache.Brelse(p.Ctx(), b)
		}
	}
}

func stalls(c *trace.Collector) (n int) {
	for _, ev := range c.Events {
		if ev.Kind == trace.KindSpliceStall {
			n++
		}
	}
	return n
}

func TestBufferStarvationStallsAndRetries(t *testing.T) {
	// With every cache buffer busy, a side that needs one at interrupt
	// level cannot sleep for it: it emits splice.stall, retries from the
	// callout list each tick, and finishes once buffers come back.
	t.Run("source-file", func(t *testing.T) {
		m := newMachine(t, disk.RZ58)
		pipes(m)
		const size = 3*bsize + 100
		m.run(t, func(p *kernel.Proc) {
			want := makeRef(size, 6)
			pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
			pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			_, _ = p.Fcntl(pout, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, pout, dst, size, Options{}) // parks on the empty pipe
			if err != nil {
				t.Fatalf("splice: %v", err)
			}
			release := hogBuffers(m, p)
			col := &trace.Collector{}
			m.k.StartTrace(col)
			_, _ = p.Write(pin, want) // delivered to the parked read: no staging buffer
			p.SleepFor(30 * sim.Millisecond)
			if n := stalls(col); n < 2 || h.Done() || h.Moved() != 0 {
				t.Errorf("starved splice: %d stall(s), done=%v moved=%d; want repeated stalls and no progress", n, h.Done(), h.Moved())
			}
			release()
			m.k.StopTrace()
			if err := h.Wait(p); err != nil || h.Moved() != size {
				t.Fatalf("moved %d of %d, err %v", h.Moved(), size, err)
			}
			_ = p.Close(dst)
			if got := readAll(t, p, "/d1/dst"); !bytes.Equal(got, want) {
				t.Fatal("data corrupted across the stall")
			}
		})
	})
	t.Run("file-file", func(t *testing.T) {
		m := newMachine(t, disk.RZ56)
		const size = 40 * bsize
		m.run(t, func(p *kernel.Proc) {
			want := makeFile(t, p, "/d0/src", size, 8)
			_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, src, dst, EOF, Options{}) // primes five reads
			if err != nil {
				t.Fatalf("splice: %v", err)
			}
			// Each completed write frees one buffer; the refill wants a
			// batch, so StartRead refuses at interrupt level.
			release := hogBuffers(m, p)
			col := &trace.Collector{}
			m.k.StartTrace(col)
			for i := 0; i < 200 && stalls(col) == 0; i++ {
				p.SleepFor(sim.Millisecond)
			}
			if stalls(col) == 0 || h.Done() {
				t.Errorf("starved splice: %d stall(s), done=%v", stalls(col), h.Done())
			}
			release()
			m.k.StopTrace()
			if err := h.Wait(p); err != nil || h.Moved() != size {
				t.Fatalf("moved %d of %d, err %v", h.Moved(), size, err)
			}
			_ = p.Close(dst)
			if got := readAll(t, p, "/d1/dst"); !bytes.Equal(got, want) {
				t.Fatal("data corrupted across the stall")
			}
		})
	})
}

// failingSink is a Sink that refuses everything.
type failingSink struct{ err error }

func (s *failingSink) Read(kernel.Ctx, []byte, int64) (int, error)  { return 0, kernel.ErrOpNotSupp }
func (s *failingSink) Write(kernel.Ctx, []byte, int64) (int, error) { return 0, s.err }
func (s *failingSink) Close(kernel.Ctx) error                       { return nil }
func (s *failingSink) SpliceWrite(_ []byte, done func(error))       { done(s.err) }

func TestSinkFailureFlushesParkedBlocks(t *testing.T) {
	// Block 0 comes off the disk while blocks 1-4 are cache hits, so they
	// park behind it; the sink then fails block 0. Every parked buffer
	// must come back and the splice must report the sink's error.
	m := newMachine(t, disk.RZ58)
	boom := errors.New("sink on fire")
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 6*bsize, 5)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		_, _ = p.Lseek(src, bsize, kernel.SeekSet)
		for i := 0; i < 5; i++ {
			_, _ = p.Read(src, make([]byte, bsize))
		}
		_, _ = p.Lseek(src, 0, kernel.SeekSet)
		snk := p.InstallFile(&failingSink{err: boom}, kernel.OWrOnly)
		free := m.cache.FreeBuffers()

		n, h, err := SpliceOpts(p, src, snk, EOF, Options{})
		if n != 0 || err != boom {
			t.Fatalf("splice = (%d, %v), want (0, %v)", n, err, boom)
		}
		if st := h.Stats(); st.WritesIssued != 1 || st.CacheHits < 4 {
			t.Errorf("blocks were not parked behind block 0: %+v", st)
		}
		if got := m.cache.FreeBuffers(); got != free {
			t.Errorf("%d free buffers after the failed splice, want %d", got, free)
		}
		if err := m.k.CheckDrained(); err != nil {
			t.Error(err)
		}
	})
}
