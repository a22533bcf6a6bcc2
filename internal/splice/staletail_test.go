package splice

import (
	"bytes"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// A splice into a file sizes and allocates the whole destination up
// front. When the transfer ends short — a signal, an I/O error, a
// source that dries up — the blocks it never wrote are fresh from the
// allocator and still hold whatever their previous owner left there.
// These tests make that previous owner recognisable and require that
// none of its bytes can be read through the destination.

const staleByte = 0xD7

// seedStaleBlocks leaves /d1's allocator about to hand out blocks full
// of staleByte: a 950-block file that stays, then a 1000-block file of
// the pattern, fsync'd and unlinked — so a new file soon wraps onto the
// freed blocks.
func seedStaleBlocks(t *testing.T, p *kernel.Proc) {
	t.Helper()
	fill := func(path string, blocks int, b byte) {
		fd, err := p.Open(path, kernel.OCreat|kernel.OWrOnly)
		if err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		block := bytes.Repeat([]byte{b}, bsize)
		for i := 0; i < blocks; i++ {
			if _, err := p.Write(fd, block); err != nil {
				t.Fatalf("fill %s: %v", path, err)
			}
		}
		if err := p.Fsync(fd); err != nil {
			t.Fatalf("fsync %s: %v", path, err)
		}
		_ = p.Close(fd)
	}
	fill("/d1/filler", 950, 0x11)
	fill("/d1/secret", 1000, staleByte)
	if err := p.Unlink("/d1/secret"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
}

// checkNoStaleTail reads /d1/dst back: it must be size bytes long (the
// destination is sized up front), its first moved bytes the payload,
// and every other byte payload or zero — never the deleted file's.
// The volume must then check clean.
func checkNoStaleTail(t *testing.T, m *machine, p *kernel.Proc, want []byte, size int, moved int64) {
	t.Helper()
	got := readAll(t, p, "/d1/dst")
	if len(got) != size {
		t.Fatalf("destination is %d bytes, want the scheduled %d", len(got), size)
	}
	if !bytes.Equal(got[:moved], want[:moved]) {
		t.Fatal("moved prefix corrupted")
	}
	stale := 0
	for i, b := range got {
		if b != 0 && (i >= len(want) || b != want[i]) {
			if stale++; stale == 1 {
				t.Errorf("byte %d (block %d) of the destination is %#02x: neither payload nor zero", i, i/bsize, b)
			}
		}
	}
	if stale > 0 {
		t.Errorf("%d foreign bytes (%d blocks' worth) readable past the %d bytes moved", stale, stale/bsize, moved)
	}
	if err := m.fsys[1].SyncAll(p.Ctx()); err != nil {
		t.Fatalf("syncall: %v", err)
	}
	rep, err := fs.Fsck(p.Ctx(), m.cache, m.disks[1])
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck /d1: %v, problems %v", err, rep.Problems)
	}
}

func TestInterruptedSpliceLeavesNoStaleTail(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	const size = 128 * bsize
	m.run(t, func(p *kernel.Proc) {
		seedStaleBlocks(t, p)
		want := makeFile(t, p, "/d0/src", size, 12)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		p.SetSignalHandler(kernel.SIGALRM, func(*kernel.Proc, kernel.Signal) {})
		p.SetITimer(50*sim.Millisecond, 0)
		n, err := Splice(p, src, dst, EOF)
		if err != kernel.ErrIntr || n <= 0 || n >= size {
			t.Fatalf("interrupted splice = (%d, %v), want a partial count and ErrIntr", n, err)
		}
		_ = p.Close(dst)
		checkNoStaleTail(t, m, p, want, size, n)
	})
}

func TestFailedAsyncSpliceLeavesNoStaleTail(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	const size = 128 * bsize
	m.run(t, func(p *kernel.Proc) {
		seedStaleBlocks(t, p)
		want := makeFile(t, p, "/d0/src", size, 13)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		// The sixth block written to /d1 fails, once.
		m.k.Faults().Arm(kernel.FaultArm{Site: m.disks[1].WriteSite(), K: 6, Match: kernel.MatchAny})
		_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
		if err != nil {
			t.Fatalf("splice setup: %v", err)
		}
		if err := h.Wait(p); err != kernel.ErrIO || h.Moved() <= 0 || h.Moved() >= size {
			t.Fatalf("failed splice: moved %d, err %v, want a partial count and ErrIO", h.Moved(), err)
		}
		_ = p.Close(dst)
		// Writes complete out of order around the failed one, so only
		// payload-or-zero is checked, not a moved prefix.
		checkNoStaleTail(t, m, p, want, size, 0)
	})
}

func TestShortSourceSpliceLeavesNoStaleTail(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	pipes(m)
	const size = 128 * bsize
	const fed = 3*bsize + 1000
	m.run(t, func(p *kernel.Proc) {
		seedStaleBlocks(t, p)
		want := makeRef(fed, 14)
		pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
		pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
		dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if _, err := p.Write(pin, want); err != nil {
			t.Fatalf("feed: %v", err)
		}
		_ = p.Close(pin) // the source dries up after fed bytes
		n, err := Splice(p, pout, dst, size)
		if err != nil || n != fed {
			t.Fatalf("short pipe→file splice = (%d, %v), want (%d, nil)", n, err, fed)
		}
		_ = p.Close(dst)
		checkNoStaleTail(t, m, p, want, size, n)
	})
}
