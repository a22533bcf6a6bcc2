package splice

import (
	"bytes"
	"testing"
	"testing/quick"

	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// ---- fault injection: the error paths the paper's prototype had to
// get right to avoid leaking buffers at interrupt level ----

func TestSpliceReadFaultAbortsCleanly(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	const blocks = 24
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 50)
		if err := m.cache.InvalidateDev(p.Ctx(), m.disks[0]); err != nil {
			t.Fatal(err)
		}
		// Fail the physical block backing logical block 10.
		fl, _ := p.Open("/d0/src", kernel.ORdOnly)
		fd, _ := p.FD(fl)
		table, err := fd.Ops().(FileLike).SpliceMapRead(p.Ctx(), 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[0].ReadSite(), Every: 1, Match: int64(table[10]), Count: -1, Quiet: true})

		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		free0 := m.cache.FreeBuffers()
		n, _, serr := SpliceOpts(p, fl, dst, EOF, Options{})
		if serr != kernel.ErrIO {
			t.Fatalf("splice err = %v, want ErrIO", serr)
		}
		if n >= blocks*bsize {
			t.Fatalf("moved %d despite fault", n)
		}
		// Every cache buffer the splice held must be back on the free
		// list once the descriptor drains.
		if got := m.cache.FreeBuffers(); got != free0 {
			t.Fatalf("buffer leak after failed splice: free %d -> %d", free0, got)
		}
	})
}

func TestSpliceWriteFaultAbortsCleanly(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	const blocks = 16
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", blocks*bsize, 51)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])

		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		fdD, _ := p.FD(dst)
		dtable, _, err := fdD.Ops().(FileLike).SpliceMapWrite(p.Ctx(), 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[1].WriteSite(), Every: 1, Match: int64(dtable[5]), Count: -1, Quiet: true})

		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		free0 := m.cache.FreeBuffers()
		_, _, serr := SpliceOpts(p, src, dst, EOF, Options{})
		if serr != kernel.ErrIO {
			t.Fatalf("splice err = %v, want ErrIO", serr)
		}
		if got := m.cache.FreeBuffers(); got != free0 {
			t.Fatalf("buffer leak after failed write: free %d -> %d", free0, got)
		}
	})
	if m.disks[1].Errors() == 0 {
		t.Fatal("fault never triggered")
	}
}

func TestSpliceTransientFaultPartialData(t *testing.T) {
	// A counted fault fails once; the splice aborts with a partial
	// prefix moved, and a retry over the now-clean media succeeds.
	m := newMachine(t, disk.RAMDisk)
	const blocks = 12
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/src", blocks*bsize, 52)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		fd, _ := p.FD(src)
		table, _ := fd.Ops().(FileLike).SpliceMapRead(p.Ctx(), 0, blocks)
		m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[0].ReadSite(), Every: 1, Match: int64(table[6]), Count: 1, Quiet: true})

		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if _, _, serr := SpliceOpts(p, src, dst, EOF, Options{}); serr != kernel.ErrIO {
			t.Fatalf("first splice: %v, want ErrIO", serr)
		}
		// Retry from scratch.
		_, _ = p.Lseek(src, 0, kernel.SeekSet)
		_, _ = p.Lseek(dst, 0, kernel.SeekSet)
		n, err := Splice(p, src, dst, EOF)
		if err != nil || n != blocks*bsize {
			t.Fatalf("retry: n=%d err=%v", n, err)
		}
		if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
			t.Fatal("retry produced wrong data")
		}
	})
}

func TestReadWritePathReportsFault(t *testing.T) {
	// The ordinary read() path must surface injected errors too.
	m := newMachine(t, disk.RZ56)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/f", 4*bsize, 53)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/f", kernel.ORdOnly)
		fd, _ := p.FD(src)
		table, _ := fd.Ops().(FileLike).SpliceMapRead(p.Ctx(), 0, 4)
		m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[0].ReadSite(), Every: 1, Match: int64(table[2]), Count: -1, Quiet: true})
		buf := make([]byte, bsize)
		var rerr error
		for i := 0; i < 4 && rerr == nil; i++ {
			_, rerr = p.Read(src, buf)
		}
		if rerr != kernel.ErrIO {
			t.Fatalf("read err = %v, want ErrIO", rerr)
		}
	})
}

// ---- rate-controlled splice (continuous-media extension) ----

func TestSpliceRatePacing(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	const size = 64 * bsize // 512KB
	const rate = 256 << 10  // 256KB/s → ~2s
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", size, 54)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		t0 := p.Now()
		n, _, err := SpliceOpts(p, src, dst, EOF, Options{RateBytesPerSec: rate})
		if err != nil || n != size {
			t.Fatalf("paced splice: n=%d err=%v", n, err)
		}
		elapsed := p.Now().Sub(t0)
		ideal := sim.Duration(float64(size) / rate * float64(sim.Second))
		if elapsed < ideal*8/10 || elapsed > ideal*12/10 {
			t.Fatalf("paced splice took %v, want ~%v", elapsed, ideal)
		}
	})
}

func TestSpliceRateBoundsDeviceQueue(t *testing.T) {
	// The sink's completion callback already gives the descriptor
	// watermark-level backpressure (pending writes < 5 + refill batch),
	// so even an unpaced splice holds only ~9 blocks in the device
	// queue; kernel pacing at the playback rate tightens that further.
	peakQueued := func(rate float64) int {
		m := newMachine(t, disk.RAMDisk)
		dac := dev.NewDAC(m.k, dev.DACParams{Path: "/dev/out", Rate: 512 << 10, BufBytes: 8 << 20})
		const size = 64 * bsize
		peak := 0
		m.k.Engine().Schedule(sim.Millisecond, "mon", func() {})
		m.run(t, func(p *kernel.Proc) {
			makeFile(t, p, "/d0/src", size, 55)
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			snd, _ := p.Open("/dev/out", kernel.OWrOnly)
			_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, src, snd, EOF, Options{RateBytesPerSec: rate})
			if err != nil {
				t.Fatalf("splice: %v", err)
			}
			for !h.Done() {
				if q := dac.QueuedBytes(); q > peak {
					peak = q
				}
				p.SleepFor(20 * sim.Millisecond)
			}
		})
		return peak
	}
	unpaced := peakQueued(0)
	paced := peakQueued(512 << 10) // pace at the playback rate
	if paced >= unpaced {
		t.Fatalf("pacing did not reduce the device queue: paced peak %d vs unpaced %d", paced, unpaced)
	}
	if paced > 6*bsize {
		t.Fatalf("paced queue peak %d bytes; want bounded to a few blocks", paced)
	}
	if unpaced > (DefaultWriteWatermark+DefaultRefillBatch)*bsize {
		t.Fatalf("unpaced queue peak %d exceeds the watermark bound", unpaced)
	}
}

// TestInterruptedIdleSocketSpliceDoesNotHang: a synchronous relay
// splice on a socket with no traffic must be interruptible — the parked
// source read is withdrawn and the call returns ErrIntr. (Regression
// test: this used to wedge the drain wait forever.)
func TestInterruptedIdleSocketSpliceDoesNotHang(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	out, _ := net.NewSocket(2)
	out.Connect(3)
	if _, err := net.NewSocket(3); err != nil {
		t.Fatal(err)
	}
	m.run(t, func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		outFD := p.InstallFile(out, kernel.OWrOnly)
		p.SetSignalHandler(kernel.SIGALRM, func(*kernel.Proc, kernel.Signal) {})
		p.SetITimer(100*sim.Millisecond, 0)
		t0 := p.Now()
		n, err := Splice(p, inFD, outFD, 1<<20)
		if err != kernel.ErrIntr {
			t.Fatalf("idle relay splice: n=%d err=%v, want ErrIntr", n, err)
		}
		if waited := p.Now().Sub(t0); waited > 300*sim.Millisecond {
			t.Fatalf("interrupt took %v to take effect", waited)
		}
	})
}

// TestInterruptedIdleSocketToFileSplice: same regression for the
// source→file engine, which additionally must not strand a staging
// buffer.
func TestInterruptedIdleSocketToFileSplice(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	free0 := m.cache.NumBuffers()
	m.run(t, func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		dst, _ := p.Open("/d1/landing", kernel.OCreat|kernel.OWrOnly)
		p.SetSignalHandler(kernel.SIGALRM, func(*kernel.Proc, kernel.Signal) {})
		p.SetITimer(100*sim.Millisecond, 0)
		if _, err := Splice(p, inFD, dst, 64*bsize); err != kernel.ErrIntr {
			t.Fatalf("idle socket→file splice: %v, want ErrIntr", err)
		}
	})
	if free := m.cache.FreeBuffers(); free != free0 {
		t.Fatalf("buffers leaked: %d of %d free", free, free0)
	}
}

// ---- property: splice is equivalent to a read/write copy ----

func TestSpliceEquivalentToReadWriteProperty(t *testing.T) {
	prop := func(sizeSeed uint32, seed byte, offBlocks uint8) bool {
		size := int(sizeSeed%(20*bsize)) + 1 // 1 byte .. 20 blocks
		start := int64(offBlocks%4) * bsize  // block-aligned source offset
		m := newMachine(t, disk.RAMDisk)
		ok := true
		m.run(t, func(p *kernel.Proc) {
			total := start + int64(size)
			want := makeFile(t, p, "/d0/src", int(total), seed)

			// Splice copy from the offset.
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			_, _ = p.Lseek(src, start, kernel.SeekSet)
			dst, _ := p.Open("/d1/a", kernel.OCreat|kernel.OWrOnly)
			n, err := Splice(p, src, dst, int64(size))
			if err != nil || n != int64(size) {
				ok = false
				return
			}
			_ = p.Close(src)
			_ = p.Close(dst)

			// Reference read/write copy of the same range.
			ref, _ := p.Open("/d0/src", kernel.ORdOnly)
			_, _ = p.Lseek(ref, start, kernel.SeekSet)
			out, _ := p.Open("/d1/b", kernel.OCreat|kernel.OWrOnly)
			tmp := make([]byte, bsize)
			remaining := size
			for remaining > 0 {
				want := len(tmp)
				if remaining < want {
					want = remaining
				}
				r, err := p.Read(ref, tmp[:want])
				if err != nil || r == 0 {
					break
				}
				if _, err := p.Write(out, tmp[:r]); err != nil {
					ok = false
					return
				}
				remaining -= r
			}
			_ = p.Close(ref)
			_ = p.Close(out)

			a := readAll(t, p, "/d1/a")
			b := readAll(t, p, "/d1/b")
			if !bytes.Equal(a, b) || !bytes.Equal(a, want[start:start+int64(size)]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
