package splice

import (
	"bytes"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/socket"
)

// Error-path coverage: splicing through closed descriptors, onto a full
// filesystem, past EOF mid-transfer-quantum, and across a lossy network.

func TestSpliceClosedFD(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 2*bsize, 50)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)

		if err := p.Close(src); err != nil {
			t.Fatalf("close src: %v", err)
		}
		if _, err := Splice(p, src, dst, EOF); err != kernel.ErrBadFD {
			t.Fatalf("splice from closed src: %v, want ErrBadFD", err)
		}

		src, _ = p.Open("/d0/src", kernel.ORdOnly)
		if err := p.Close(dst); err != nil {
			t.Fatalf("close dst: %v", err)
		}
		if _, err := Splice(p, src, dst, EOF); err != kernel.ErrBadFD {
			t.Fatalf("splice to closed dst: %v, want ErrBadFD", err)
		}
	})
}

func TestSpliceFullFilesystem(t *testing.T) {
	// /d1 lives on a volume far too small for the source file; the
	// destination mapping is built up front (§5.2), so the splice fails
	// with ENOSPC before any data moves, and the machine stays usable.
	m := assemble(16, disk.RAMDisk(2048, bsize), disk.RAMDisk(48, bsize))
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", 64*bsize, 51)
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if _, err := Splice(p, src, dst, EOF); err != kernel.ErrNoSpace {
			t.Fatalf("splice onto full fs: %v, want ErrNoSpace", err)
		}
		// The blocks the aborted mapping grabbed are still attached to
		// the destination inode — consistently so.
		if err := m.fsys[1].SyncAll(p.Ctx()); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if rep, err := fs.Fsck(p.Ctx(), m.cache, m.disks[1]); err != nil {
			t.Fatalf("fsck: %v", err)
		} else if !rep.Clean() {
			t.Fatalf("tiny volume inconsistent after failed splice: %v", rep.Problems)
		}
		// Unlinking the casualty releases them and the volume is usable
		// again.
		if err := p.Close(dst); err != nil {
			t.Fatalf("close dst: %v", err)
		}
		if err := p.Unlink("/d1/dst"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		fd, err := p.Open("/d1/small", kernel.OCreat|kernel.OWrOnly)
		if err != nil {
			t.Fatalf("open after ENOSPC: %v", err)
		}
		if _, err := p.Write(fd, make([]byte, 100)); err != nil {
			t.Fatalf("write after ENOSPC: %v", err)
		}
	})
}

// TestSpliceSourceFileWriteFaultAbortsCleanly exercises the source→file
// engine's destination-failure path: a staged block's asynchronous
// write fails at interrupt level partway through a socket→file splice.
// The call must report the bytes moved so far with a single ErrIO,
// release every staging buffer back to the cache, and leave BOTH
// endpoints usable — the source socket still delivers the bytes the
// splice never consumed, and the destination volume is structurally
// consistent (the aborted mapping's blocks stay attached to the inode,
// the rollbackBlock discipline's "referenced, therefore consistent"
// contract).
func TestSpliceSourceFileWriteFaultAbortsCleanly(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	net := socket.NewNet(m.k, socket.Loopback())
	in, err := net.NewSocket(1)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewSocket(2)
	if err != nil {
		t.Fatal(err)
	}
	producer.Connect(1)
	pinger, err := net.NewSocket(3)
	if err != nil {
		t.Fatal(err)
	}
	pinger.Connect(1)

	const blocks = 12
	const total = blocks * bsize
	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		chunk := make([]byte, 1024)
		for i := range chunk {
			chunk[i] = 0x5A
		}
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := p.Write(fd, chunk); err != nil {
				t.Errorf("produce: %v", err)
				return
			}
		}
		_ = p.Close(fd) // EOF marker
	})
	m.run(t, func(p *kernel.Proc) {
		dst, _ := p.Open("/d1/landing", kernel.OCreat|kernel.OWrOnly)
		fdD, _ := p.FD(dst)
		dtable, _, err := fdD.Ops().(FileLike).SpliceMapWrite(p.Ctx(), 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		defect := m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[1].WriteSite(), Every: 1, Match: int64(dtable[3]), Count: -1, Quiet: true})

		inFD := p.InstallFile(in, kernel.ORdOnly)
		free0 := m.cache.FreeBuffers()
		n, serr := Splice(p, inFD, dst, total)
		if serr != kernel.ErrIO {
			t.Fatalf("splice: n=%d err=%v, want ErrIO", n, serr)
		}
		if n <= 0 || n >= total {
			t.Fatalf("moved %d of %d; want a proper prefix", n, total)
		}
		// Every staging buffer the engine held must be back on the free
		// list once the descriptor drains.
		if got := m.cache.FreeBuffers(); got != free0 {
			t.Fatalf("staging buffer leak after failed splice: free %d -> %d", free0, got)
		}
		// The source survives the sink's failure. Whatever the splice
		// left buffered (the producer raced the 64KB receive bound, so
		// the tail datagrams were dropped UDP-style) drains down to the
		// producer's EOF marker without error...
		tmp := make([]byte, 4096)
		for {
			r, rerr := p.Read(inFD, tmp)
			if rerr != nil {
				t.Fatalf("read source after failed splice: %v", rerr)
			}
			if r == 0 {
				break
			}
		}
		// ...and the descriptor still delivers fresh traffic: no parked
		// splice read is left squatting on the receive queue.
		pingFD := p.InstallFile(pinger, kernel.OWrOnly)
		if _, err := p.Write(pingFD, []byte("post-fault ping")); err != nil {
			t.Fatalf("ping write: %v", err)
		}
		r, rerr := p.Read(inFD, tmp)
		if rerr != nil || string(tmp[:r]) != "post-fault ping" {
			t.Fatalf("source fd unusable after failed splice: n=%d err=%v", r, rerr)
		}
		// The destination volume stays consistent and writable.
		m.k.Faults().Remove(defect)
		if err := m.fsys[1].SyncAll(p.Ctx()); err != nil {
			t.Fatalf("sync after failed splice: %v", err)
		}
		if rep, err := fs.Fsck(p.Ctx(), m.cache, m.disks[1]); err != nil {
			t.Fatalf("fsck: %v", err)
		} else if !rep.Clean() {
			t.Fatalf("destination volume inconsistent after failed splice: %v", rep.Problems)
		}
		if _, err := p.Lseek(dst, 0, kernel.SeekSet); err != nil {
			t.Fatalf("lseek dst after failed splice: %v", err)
		}
		if _, err := p.Write(dst, make([]byte, 100)); err != nil {
			t.Fatalf("write dst after failed splice: %v", err)
		}
	})
	if m.disks[1].Errors() == 0 {
		t.Fatal("fault never triggered")
	}
}

// TestSpliceSourceFileSetupENOSPC: the destination mapping is built up
// front (§5.2), so a socket→file splice onto a too-small volume fails
// with ErrNoSpace before a single byte leaves the source — the socket's
// queue is untouched and the partial allocation stays consistently
// attached.
func TestSpliceSourceFileSetupENOSPC(t *testing.T) {
	m := assemble(16, disk.RAMDisk(48, bsize))
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	producer, _ := net.NewSocket(2)
	producer.Connect(1)

	m.run(t, func(p *kernel.Proc) {
		pfd := p.InstallFile(producer, kernel.OWrOnly)
		if _, err := p.Write(pfd, []byte("queued before the splice")); err != nil {
			t.Fatalf("produce: %v", err)
		}

		inFD := p.InstallFile(in, kernel.ORdOnly)
		dst, _ := p.Open("/d0/dst", kernel.OCreat|kernel.OWrOnly)
		if _, err := Splice(p, inFD, dst, 64*bsize); err != kernel.ErrNoSpace {
			t.Fatalf("splice onto full fs: %v, want ErrNoSpace", err)
		}
		// Nothing was consumed from the source.
		tmp := make([]byte, 64)
		n, err := p.Read(inFD, tmp)
		if err != nil || string(tmp[:n]) != "queued before the splice" {
			t.Fatalf("source disturbed by failed setup: n=%d err=%v", n, err)
		}
		if err := m.fsys[0].SyncAll(p.Ctx()); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if rep, err := fs.Fsck(p.Ctx(), m.cache, m.disks[0]); err != nil {
			t.Fatalf("fsck: %v", err)
		} else if !rep.Clean() {
			t.Fatalf("volume inconsistent after failed setup: %v", rep.Problems)
		}
		// Unlinking the casualty makes the space usable again.
		if err := p.Close(dst); err != nil {
			t.Fatalf("close dst: %v", err)
		}
		if err := p.Unlink("/d0/dst"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
	})
}

func TestSpliceEOFMidTransferQuantum(t *testing.T) {
	// The source ends partway through a transfer quantum (its last block
	// is partial) and the caller asks for far more than the file holds:
	// the splice returns the short count and the partial quantum lands
	// intact.
	m := newMachine(t, disk.RZ58)
	const size = 2*bsize + 1234
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/short", size, 52)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/short", kernel.ORdOnly)
		dst, _ := p.Open("/d1/out", kernel.OCreat|kernel.OWrOnly)
		n, err := Splice(p, src, dst, 10*bsize)
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		if n != size {
			t.Fatalf("moved %d, want short count %d", n, size)
		}
		if got := readAll(t, p, "/d1/out"); !bytes.Equal(got, want) {
			t.Fatal("partial final quantum corrupted")
		}
		// The splice left src at the (unaligned) EOF; splicing again from
		// there is rejected, and from an aligned offset past EOF it
		// degenerates to a zero-byte transfer.
		if _, err := Splice(p, src, dst, bsize); err != kernel.ErrInval {
			t.Fatalf("splice at unaligned EOF: %v, want ErrInval", err)
		}
		if _, err := p.Lseek(src, 3*bsize, 0); err != nil {
			t.Fatalf("lseek src: %v", err)
		}
		if _, err := p.Lseek(dst, 3*bsize, 0); err != nil {
			t.Fatalf("lseek dst: %v", err)
		}
		n, err = Splice(p, src, dst, bsize)
		if err != nil || n != 0 {
			t.Fatalf("splice past EOF: n=%d err=%v, want 0, nil", n, err)
		}
	})
}

func TestSpliceSocketDroppedPackets(t *testing.T) {
	// A relay splice over a lossy link: every 4th data packet in flight
	// is dropped, UDP-style. The relay must neither wedge nor relay
	// garbage — it moves what arrives and terminates on the EOF marker
	// (which is never dropped).
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	m.k.Faults().Arm(kernel.FaultArm{Site: net.DropSite(), Every: 4, Match: kernel.MatchAny, Count: -1, Quiet: true})
	in, _ := net.NewSocket(5000)
	out, _ := net.NewSocket(5001)
	sink, _ := net.NewSocket(5002)
	out.Connect(5002)
	producer, _ := net.NewSocket(4000)
	producer.Connect(5000)

	const ndgrams = 20
	const dsize = 1000
	var relayed int64
	var consumed int

	m.k.Spawn("consumer", func(p *kernel.Proc) {
		fd := p.InstallFile(sink, kernel.ORdOnly)
		buf := make([]byte, 4096)
		for {
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("consume: %v", err)
				return
			}
			if n == 0 {
				return // relay closed its outbound socket
			}
			consumed += n
		}
	})
	m.k.Spawn("relay", func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		outFD := p.InstallFile(out, kernel.OWrOnly)
		n, err := Splice(p, inFD, outFD, ndgrams*dsize)
		if err != nil {
			t.Errorf("relay splice: %v", err)
		}
		relayed = n
		_ = p.Close(outFD)
	})
	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		for i := 0; i < ndgrams; i++ {
			if _, err := p.Write(fd, make([]byte, dsize)); err != nil {
				t.Errorf("produce: %v", err)
			}
		}
		_ = p.Close(fd) // EOF marker terminates the relay
	})
	m.drive(t)

	_, _, dropped := net.Stats()
	if dropped == 0 {
		t.Fatal("lossy link dropped nothing; drop arm not applied")
	}
	if relayed >= ndgrams*dsize {
		t.Fatalf("relayed %d bytes despite %d drops", relayed, dropped)
	}
	if relayed == 0 {
		t.Fatal("relay moved nothing")
	}
	if int64(consumed) > relayed {
		t.Fatalf("consumer got %d bytes, more than the %d relayed", consumed, relayed)
	}
}
