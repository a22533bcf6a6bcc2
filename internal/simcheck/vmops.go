package simcheck

import (
	"fmt"

	"kdp/internal/kernel"
)

// The mapped-file ops are a fetch and two stores in fileops.go's
// frames: map, act, unmap. The mapping outlives its descriptor (the fd
// closes right after Mmap), so every op also exercises the
// map-reference-keeps-the-inode path. A store makes its page's cache
// buffer a delayed write, and the last Munmap, like close, reports the
// device's latched write error, so an earlier fault op can surface
// through the next op's Munmap or msync — those errors taint the oracle
// exactly like a failed write.

// fetchMapped builds the mapped fetches. mmap-read maps the whole file
// shared read-only and faults every page in through the buffer cache
// with one MemRead — the mapped twin of fetchSeq. mmap-private maps the
// op's range private and writable and loads it, then stores the op's
// pattern over it through the mapping — each page's first store copies
// the page into a block of the mapping's own — and must read the
// pattern back. The oracle never sees that store, so a store that
// leaked into the file trips oracle-content at a later read of it.
func fetchMapped(private bool) fetchFunc {
	return func(m *machine, p *kernel.Proc, fd int, o *op) ([]byte, string, error) {
		// A violation names its op, spelled at the call.
		bad := func(format string, args ...any) {
			if private {
				m.violate("mmap-private", format, args...)
			} else {
				m.violate("mmap-read", format, args...)
			}
		}
		size, err := p.FileSize(fd)
		off, n, prot, flags, bufs := int64(0), size, kernel.ProtRead, kernel.MapShared, 1
		if private {
			off, n = o.off, min(max(size-o.off, 0), int64(o.size))
			prot, flags, bufs = kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate, 3
		}
		if err != nil || n == 0 {
			p.Close(fd)
			return nil, "", skipped(fmt.Sprintf("nothing to map (size=%d err=%v)", size, err))
		}
		d := m.Disks[o.disk]
		latched, failed := m.Cache.WriteError(d), d.Errors()
		addr, merr := p.Mmap(fd, 0, off+n, prot, flags)
		p.Close(fd)
		if merr != nil {
			// Mapping an open regular file takes no I/O; failure is a harness bug.
			bad("mmap %s: %v", o.path(), merr)
			return nil, "", nil
		}
		buf := m.ioBuf(o.worker, 0, bufs*int(n))
		got := buf[:n]
		err = p.MemRead(addr+off, got)
		var stored, back []byte
		if private && err == nil {
			stored, back = pattern(buf[n:2*n], off, o.pat), buf[2*n:]
			if err = p.MemWrite(addr+off, stored); err == nil {
				err = p.MemRead(addr+off, back)
			}
		}
		uerr := p.Munmap(addr)
		if err != nil {
			// A fault hit an injected disk fault mid-scan.
			return nil, "", fmt.Errorf("fault: %v", err)
		}
		if i := firstDiff(back, stored); i >= 0 {
			bad("%s reads %#02x at byte %d through its private mapping, which stored %#02x", o.path(), back[i], off+int64(i), stored[i])
			return nil, "", nil
		}
		// The last unmap, like close, reports the device's latched write
		// error, ignored as fetchRead's close ignores it if a write failed
		// before or during this fetch; an unmap that stored nothing into the
		// file failing otherwise is a bug.
		if uerr != nil && latched == nil && d.Errors() == failed {
			bad("munmap %s: %v", o.path(), uerr)
		}
		return got, "", nil
	}
}

// mappedStore builds the mmap-write and msync stores: map [0, off+size)
// of the file shared read/write, store data at off through MemWrite
// (write faults allocate backing blocks and COW nothing — it's a shared
// map), msync if asked, and unmap. The dirty pages stay delayed writes
// when Munmap lets go of them, and a latched write error from an
// earlier fault op surfaces here — tainting the file just as it would a
// plain write.
// A successful msync carries the same contract as fsync: this exact
// content is durable and survives any later crash byte-exact — the
// crash sweep holds it to that.
func mappedStore(sync bool) storeFunc {
	return func(m *machine, p *kernel.Proc, fd int, o *op, data []byte) (string, bool, error) {
		addr, err := p.Mmap(fd, 0, o.off+int64(len(data)), kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		p.Close(fd)
		if err != nil {
			// Mapping extends the file to end (delayed metadata); nothing
			// else is knowable.
			return "", false, fmt.Errorf("mmap: %v", err)
		}
		if werr := p.MemWrite(addr+o.off, data); werr != nil {
			// A fault mid-store (ENOSPC allocating a backing block, or an
			// injected read fault paging in a partial page) leaves an
			// unpredictable subset of the stores applied.
			if uerr := p.Munmap(addr); uerr != nil {
				return "", false, fmt.Errorf("memwrite: %v; munmap: %v (tainted)", werr, uerr)
			}
			return "", false, fmt.Errorf("memwrite: %v (tainted)", werr)
		}
		var serr error
		if sync {
			serr = p.Msync(addr)
		}
		uerr := p.Munmap(addr)
		if serr != nil {
			// A failed msync wrote an unknown subset: current content and
			// the durable image are both unpredictable.
			return "", false, fmt.Errorf("msync: %v", serr)
		}
		if uerr != nil {
			return "", false, fmt.Errorf("munmap: %v (tainted)", uerr)
		}
		return "", sync, nil
	}
}
