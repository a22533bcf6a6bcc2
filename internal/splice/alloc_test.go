package splice

import (
	"bytes"
	"runtime"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
)

// midTransferAllocs starts an asynchronous splice of total bytes from src
// to dst and counts what the runtime allocates while the middle half of
// the transfer moves: by then the descriptor's records, the cache's
// empty headers and the kernel's callouts and events are all in
// circulation, and the caller does nothing but sleep a tick at a time.
func midTransferAllocs(t *testing.T, p *kernel.Proc, src, dst int, total int64) (objects uint64, blocks int64) {
	t.Helper()
	if _, err := p.Fcntl(src, kernel.FSetFL, kernel.FAsync); err != nil {
		t.Fatalf("fcntl: %v", err)
	}
	p.SetSignalHandler(kernel.SIGIO, nil)
	_, h, err := SpliceOpts(p, src, dst, total, Options{})
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	tick := p.Kernel().Config().TickDuration()
	waitFor := func(moved int64) int64 {
		for h.Moved() < moved && !h.Done() {
			p.SleepFor(tick)
		}
		return h.Moved()
	}
	var before, after runtime.MemStats
	from := waitFor(total / 4)
	runtime.ReadMemStats(&before)
	to := waitFor(3 * total / 4)
	runtime.ReadMemStats(&after)
	if h.Done() {
		t.Fatal("the transfer finished inside the measured window")
	}
	if err := h.Wait(p); err != nil {
		t.Fatalf("splice: %v", err)
	}
	return after.Mallocs - before.Mallocs, (to - from) / bsize
}

// TestSplicedBlockAllocatesNothing: in the steady state of a file-to-file
// splice a block costs a read, a callout, a write through a header off
// the empty list, and their completion events — and no allocation — on
// the RAM disk, where every request completes inline, and on the RZ58,
// where each is queued, serviced and completed by an interrupt.
func TestSplicedBlockAllocatesNothing(t *testing.T) {
	for _, dev := range []struct {
		name   string
		params func(int64, int) disk.Params
	}{{"RAM", disk.RAMDisk}, {"RZ58", disk.RZ58}} {
		t.Run(dev.name, func(t *testing.T) {
			m := newMachine(t, dev.params)
			const size = 256 * bsize
			m.run(t, func(p *kernel.Proc) {
				want := makeFile(t, p, "/d0/src", size, 9)
				src, _ := p.Open("/d0/src", kernel.ORdOnly)
				dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
				objects, blocks := midTransferAllocs(t, p, src, dst, size)
				// The count is the whole runtime's: a stray object or two
				// from the test binary's background is not one per block.
				if blocks < 64 || objects > uint64(blocks)/16 {
					t.Errorf("%d objects allocated while %d blocks moved, want none per block over at least 64", objects, blocks)
				}
				_ = p.Close(src)
				_ = p.Close(dst)
				if !bytes.Equal(readAll(t, p, "/d1/dst"), want) {
					t.Error("spliced data mismatch")
				}
			})
		})
	}
}
