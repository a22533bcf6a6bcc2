package vm_test

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/machine"
)

// A resident file page is its block's cache buffer, and that buffer
// shares its block with the platter copy-on-write like any other: these
// tests hold the VM to reading the buffer's memory at every access.

// syncedFile writes path as one block of pattern(bsize, 5), fsyncs it so
// the platter and the buffer share the block, and opens it read-write.
func syncedFile(t *testing.T, p *kernel.Proc, path string) (fd int, blk int64) {
	t.Helper()
	fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := p.Write(fd, pattern(bsize, 5)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := p.Fsync(fd); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	return fd, blockOf(t, p, fd, 0)
}

// platterIs reports whether the platter's block blk is mem's memory.
func platterIs(m *machine.Machine, blk int64, mem []byte) bool {
	pb := m.Disks[0].PlatterBlock(blk)
	return pb != nil && len(mem) > 0 && &pb.Bytes[0] == &mem[0]
}

// TestMappedPageSharesItsBlock: a page-in moves no bytes — the clean
// page is its platter's block — and neither does an msync: after a
// store the platter takes the page's block. The store itself copies,
// once, so the platter keeps its bytes until the msync.
func TestMappedPageSharesItsBlock(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		fd, blk := syncedFile(t, p, "/v/f")
		addr, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemRead(addr, make([]byte, 1)); err != nil {
			t.Fatalf("load: %v", err)
		}
		if !platterIs(m, blk, m.Pool.PageData(p, addr)) {
			t.Error("a clean page does not share its platter's block")
		}
		if err := p.MemWrite(addr+storeOff, stored); err != nil {
			t.Fatalf("store: %v", err)
		}
		page := m.Pool.PageData(p, addr)
		if platterIs(m, blk, page) || !bytes.Equal(page[storeOff:storeOff+len(stored)], stored) {
			t.Error("the store did not land in a block of the page's own")
		}
		if err := p.Msync(addr); err != nil {
			t.Fatalf("msync: %v", err)
		}
		if !platterIs(m, blk, page) || !platterIs(m, blk, m.Pool.PageData(p, addr)) {
			t.Error("msync did not hand the platter the page's block")
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		_ = p.Close(fd)
	})
}

// TestWriteReachesTheSharingPage: a write() into a block that a clean
// mapped page shares gives the buffer a copy of its own, and the
// mapping's next load reads the copy, while a private mapping's earlier
// copy-on-write page keeps the old bytes. A VM that kept the memory it
// saw at page-in would read the platter's old block here.
func TestWriteReachesTheSharingPage(t *testing.T) {
	staleVolume(t, 64, func(m *machine.Machine, p *kernel.Proc) {
		fd, blk := syncedFile(t, p, "/v/f")
		old := pattern(bsize, 5)
		shared, err := p.Mmap(fd, 0, bsize, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap shared: %v", err)
		}
		private, err := p.Mmap(fd, 0, bsize, kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate)
		if err != nil {
			t.Fatalf("mmap private: %v", err)
		}
		if err := p.MemWrite(private, old[:1]); err != nil { // the COW copy, of unchanged bytes
			t.Fatalf("private store: %v", err)
		}
		got := make([]byte, len(stored))
		if err := p.MemRead(shared+storeOff, got); err != nil || !bytes.Equal(got, old[storeOff:storeOff+len(stored)]) {
			t.Fatalf("shared load = %v (%v), want the file's bytes", got, err)
		}
		if !platterIs(m, blk, m.Pool.PageData(p, shared)) {
			t.Fatal("the clean page does not share its platter's block")
		}
		if _, err := p.Lseek(fd, storeOff, kernel.SeekSet); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, stored); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := p.MemRead(shared+storeOff, got); err != nil || !bytes.Equal(got, stored) {
			t.Errorf("shared load after write() = %v (%v), want the written bytes", got, err)
		}
		if err := p.MemRead(private+storeOff, got); err != nil || !bytes.Equal(got, old[storeOff:storeOff+len(stored)]) {
			t.Errorf("private load after write() = %v (%v), want its copy's old bytes", got, err)
		}
		for _, addr := range []int64{shared, private} {
			if err := p.Munmap(addr); err != nil {
				t.Fatalf("munmap: %v", err)
			}
		}
		_ = p.Close(fd)
	})
}
