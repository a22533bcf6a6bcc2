package vm

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// TestFaultRaceTakesResidentPage: a fault that finds its page mid-pagein
// by another process waits for that pagein and takes the page it
// filled, rather than paging the index in a second time — so the two
// processes share one page, and a store through either is the other's
// load.
func TestFaultRaceTakesResidentPage(t *testing.T) {
	const ps = 512
	k := kernel.New(kernel.DefaultConfig())
	v := NewPool(k, 4, ps)
	k.SetVM(v)
	f := newMemFile(3, ps)
	marker := []byte("stored by b")
	var aAsleep, bDone bool // a sleeps in the pagein of page 2; b has stored to it
	k.Spawn("a", func(p *kernel.Proc) {
		addr, err := p.Mmap(p.InstallFile(f, kernel.ORdWr), 0, 3*ps, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("a: mmap: %v", err)
		}
		f.pageIn = func() {
			f.pageIn = nil
			aAsleep = true
			k.Wakeup(&aAsleep)
			p.SleepFor(100 * sim.Millisecond) // b faults page 2 meanwhile
		}
		got := make([]byte, len(marker))
		if err := p.MemRead(addr+2*ps, got); err != nil {
			t.Fatalf("a: read page 2: %v", err)
		}
		for !bDone {
			_ = p.Sleep(&bDone, kernel.PRIBIO)
		}
		if err := p.MemRead(addr+2*ps, got); err != nil || !bytes.Equal(got, marker) {
			t.Errorf("a reads %q from page 2 (%v), want b's store %q", got, err, marker)
		}
		if err := v.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatal(err)
		}
	})
	k.Spawn("b", func(p *kernel.Proc) {
		addr, err := p.Mmap(p.InstallFile(f, kernel.ORdWr), 0, 3*ps, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("b: mmap: %v", err)
		}
		for !aAsleep {
			_ = p.Sleep(&aAsleep, kernel.PRIBIO)
		}
		if err := p.MemWrite(addr+2*ps, marker); err != nil {
			t.Fatalf("b: store to page 2: %v", err)
		}
		bDone = true
		k.Wakeup(&bDone)
		if err := p.Munmap(addr); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckDrained(); err != nil {
		t.Error(err)
	}
	if f.pageins[2] != 1 {
		t.Errorf("page 2 paged in %d times, want once", f.pageins[2])
	}
	if !bytes.Equal(f.pages[2][:len(marker)], marker) {
		t.Errorf("page 2 of the file holds %q, want b's store", f.pages[2][:len(marker)])
	}
}
