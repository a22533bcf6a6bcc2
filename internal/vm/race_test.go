package vm

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
)

// TestFaultRaceTakesResidentPage: a fault that finds its page absent
// takes a frame, and taking one can sleep in reclaim's pageout. Another
// process faulting the same page meanwhile pages it in, so the first
// must take that resident page — the one holding the other's store —
// rather than install a second frame for the index.
func TestFaultRaceTakesResidentPage(t *testing.T) {
	const ps = 512
	k := kernel.New(kernel.DefaultConfig())
	v := NewPool(k, 2, ps)
	k.SetVM(v)
	f := &memFile{}
	for i := 0; i < 3; i++ {
		f.pages = append(f.pages, bytes.Repeat([]byte{byte(i + 1)}, ps))
	}
	marker := []byte("stored by b")
	var aAsleep, bDone bool // a sleeps in pageout; b has faulted and stored
	k.Spawn("a", func(p *kernel.Proc) {
		addr, err := p.Mmap(p.InstallFile(f, kernel.ORdWr), 0, 3*ps, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("a: mmap: %v", err)
		}
		// Fill the pool: page 0 dirty, page 1 clean.
		if err := p.MemWrite(addr, []byte{9}); err != nil {
			t.Fatal(err)
		}
		if err := p.MemRead(addr+ps, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		// Faulting page 2 reclaims a frame by paging page 0 out; the
		// pageout sleeps until b has faulted page 2 in and stored to it.
		f.pageOut = func(ctx kernel.Ctx) {
			f.pageOut = nil
			aAsleep = true
			k.Wakeup(&aAsleep)
			for !bDone {
				_ = ctx.Sleep(&bDone, kernel.PRIBIO)
			}
		}
		got := make([]byte, len(marker))
		if err := p.MemRead(addr+2*ps, got); err != nil {
			t.Fatalf("a: read page 2: %v", err)
		}
		if !bytes.Equal(got, marker) {
			t.Errorf("a reads %q from page 2, want b's store %q", got, marker)
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
	if !bytes.Equal(f.pages[2][:len(marker)], marker) {
		t.Errorf("page 2 of the file holds %q, want b's store", f.pages[2][:len(marker)])
	}
}
