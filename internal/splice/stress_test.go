package splice

import (
	"bytes"
	"fmt"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// TestManyConcurrentSplices runs eight simultaneous async splices over
// shared devices and a shared cache and verifies every byte of every
// transfer — "splice ... provides support for multiple simultaneous I/O
// operations" (§4).
func TestManyConcurrentSplices(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	const nsplices = 8
	const size = 10 * bsize
	m.run(t, func(p *kernel.Proc) {
		for i := 0; i < nsplices; i++ {
			makeFile(t, p, fmt.Sprintf("/d0/s%d", i), size, byte(70+i))
		}
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])

		handles := make([]*Handle, nsplices)
		for i := 0; i < nsplices; i++ {
			src, _ := p.Open(fmt.Sprintf("/d0/s%d", i), kernel.ORdOnly)
			dst, _ := p.Open(fmt.Sprintf("/d1/s%d", i), kernel.OCreat|kernel.OWrOnly)
			_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
			if err != nil {
				t.Fatalf("splice %d: %v", i, err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			if err := h.Wait(p); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
			if h.Moved() != size {
				t.Fatalf("splice %d moved %d", i, h.Moved())
			}
		}
		for i := 0; i < nsplices; i++ {
			got := readAll(t, p, fmt.Sprintf("/d1/s%d", i))
			if !bytes.Equal(got, makeRef(size, byte(70+i))) {
				t.Fatalf("splice %d corrupted data", i)
			}
		}
	})
	// All kernel holds released, every buffer back.
	if free := m.cache.FreeBuffers(); free != m.cache.NumBuffers() {
		t.Fatalf("%d of %d buffers free after all splices", free, m.cache.NumBuffers())
	}
}

// TestConcurrentSplicesBoundCacheUsage: with N concurrent splices, the
// cache never holds more than N * (flow-control bound) busy buffers.
func TestConcurrentSplicesBoundCacheUsage(t *testing.T) {
	m := newMachine(t, disk.RZ56)
	const nsplices = 4
	const size = 24 * bsize
	bound := nsplices * (DefaultReadWatermark - 1 + DefaultWriteWatermark - 1 + 2*DefaultRefillBatch)
	minFree := m.cache.NumBuffers()
	m.run(t, func(p *kernel.Proc) {
		for i := 0; i < nsplices; i++ {
			makeFile(t, p, fmt.Sprintf("/d0/s%d", i), size, byte(80+i))
		}
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		handles := make([]*Handle, nsplices)
		for i := 0; i < nsplices; i++ {
			src, _ := p.Open(fmt.Sprintf("/d0/s%d", i), kernel.ORdOnly)
			dst, _ := p.Open(fmt.Sprintf("/d1/s%d", i), kernel.OCreat|kernel.OWrOnly)
			_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, src, dst, EOF, Options{})
			if err != nil {
				t.Fatalf("splice %d: %v", i, err)
			}
			handles[i] = h
		}
		done := func() bool {
			for _, h := range handles {
				if !h.Done() {
					return false
				}
			}
			return true
		}
		for !done() {
			if f := m.cache.FreeBuffers(); f < minFree {
				minFree = f
			}
			p.SleepFor(10 * sim.Millisecond)
		}
	})
	used := m.cache.NumBuffers() - minFree
	if used > bound {
		t.Fatalf("splices held up to %d buffers; flow-control bound is %d", used, bound)
	}
}

// TestSpliceWhileReadersActive interleaves a splice with ordinary
// read() traffic against the same source file: both must see correct
// data (the splice read side and the read path share cache buffers).
func TestSpliceWhileReadersActive(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	const size = 16 * bsize
	var want []byte
	m.k.Spawn("setup-and-splice", func(p *kernel.Proc) {
		if m.fsys[0] == nil {
			m.boot(t, p)
		}
		want = makeFile(t, p, "/d0/shared", size, 90)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/shared", kernel.ORdOnly)
		dst, _ := p.Open("/d1/copy", kernel.OCreat|kernel.OWrOnly)
		if n, err := Splice(p, src, dst, EOF); err != nil || n != size {
			t.Errorf("splice: n=%d err=%v", n, err)
		}
	})
	m.k.Spawn("reader", func(p *kernel.Proc) {
		// Poll-read the file while the splice runs.
		for i := 0; i < 20; i++ {
			p.SleepFor(15 * sim.Millisecond)
			fd, err := p.Open("/d0/shared", kernel.ORdOnly)
			if err != nil {
				continue // file may not exist yet
			}
			buf := make([]byte, 512)
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("reader: %v", err)
			}
			if n > 0 && want != nil && !bytes.Equal(buf[:n], want[:n]) {
				t.Error("reader saw corrupted data during splice")
			}
			_ = p.Close(fd)
		}
	})
	m.drive(t)
	m.k.Spawn("verify", func(p *kernel.Proc) {
		if !bytes.Equal(readAll(t, p, "/d1/copy"), want) {
			t.Error("spliced copy corrupted")
		}
	})
	m.drive(t)
}
