package kernel

// Memory-mapped file I/O: the system-call surface. The kernel itself
// holds no VM state; an AddressSpaceProvider (internal/vm) registered
// with SetVM implements the address-space model, demand paging and
// pageout. This mirrors how the syscall layer fronts the fd layer: the
// kernel prices the trap, the provider does the work.

// ErrNoMem is returned when the page pool cannot supply a frame (every
// resident page is wired), in the spirit of ENOMEM.
const ErrNoMem = errorString("out of memory")

// Protection and mapping-type flags for Mmap, following mmap(2).
const (
	ProtRead  = 0x1
	ProtWrite = 0x2

	// MapShared stores go to the backing file (visible to read() and
	// other mappings; written back by msync/fsync/pageout).
	MapShared = 0x1
	// MapPrivate stores are copy-on-write: a page's first store copies it
	// into a block the mapping alone holds until it is unmapped; the
	// backing file is never modified.
	MapPrivate = 0x2
)

// AddressSpaceProvider is the VM backend behind the Mmap/Munmap/Msync
// system calls and the MemRead/MemWrite user-memory accessors. The
// process passed in is the caller, running in process context (the
// provider may sleep, take faults, and charge CPU time through it).
type AddressSpaceProvider interface {
	// Mmap maps length bytes of the object open on fd starting at file
	// offset off, returning the chosen virtual address.
	Mmap(p *Proc, fd int, off, length int64, prot, flags int) (int64, error)
	// Munmap removes the mapping that starts exactly at addr.
	Munmap(p *Proc, addr int64) error
	// Msync writes the dirty pages of the mapping at addr to stable
	// storage with fsync durability.
	Msync(p *Proc, addr int64) error
	// MemRead copies len(dst) bytes of mapped memory at addr into dst,
	// taking faults as needed. Models user-mode loads, so it is not a
	// system call and charges only fault costs.
	MemRead(p *Proc, addr int64, dst []byte) error
	// MemWrite copies src into mapped memory at addr, taking write
	// faults (including COW) as needed. Models user-mode stores.
	MemWrite(p *Proc, addr int64, src []byte) error
}

// SetVM registers the address-space provider. Machines without one
// fail Mmap with ErrOpNotSupp, as a kernel built without VM would.
func (k *Kernel) SetVM(v AddressSpaceProvider) { k.vm = v }

// Mmap maps length bytes of the file open on fd at offset off into the
// process's address space and returns the virtual address. off must be
// page-aligned; length is rounded up to whole pages.
func (p *Proc) Mmap(fd int, off, length int64, prot, flags int) (int64, error) {
	defer p.SyscallExit(p.SyscallEnter("mmap"))
	if p.k.vm == nil {
		return 0, ErrOpNotSupp
	}
	return p.k.vm.Mmap(p, fd, off, length, prot, flags)
}

// Munmap removes the mapping starting at addr (whole mappings only, as
// the original mmap proposal allowed).
func (p *Proc) Munmap(addr int64) error {
	defer p.SyscallExit(p.SyscallEnter("munmap"))
	if p.k.vm == nil {
		return ErrOpNotSupp
	}
	return p.k.vm.Munmap(p, addr)
}

// Msync flushes the mapping at addr to stable storage and waits, with
// the same durability contract as Fsync on the backing file.
func (p *Proc) Msync(addr int64) error {
	defer p.SyscallExit(p.SyscallEnter("msync"))
	if p.k.vm == nil {
		return ErrOpNotSupp
	}
	return p.k.vm.Msync(p, addr)
}

// MemRead models user-mode loads from mapped memory: dst is filled
// from the mapping at addr, taking (and paying for) any page faults.
// Not a system call — touching mapped memory traps straight into the
// fault handler, which is the whole point of mmap.
func (p *Proc) MemRead(addr int64, dst []byte) error {
	if p.k.vm == nil {
		return ErrOpNotSupp
	}
	return p.k.vm.MemRead(p, addr, dst)
}

// MemWrite models user-mode stores to mapped memory.
func (p *Proc) MemWrite(addr int64, src []byte) error {
	if p.k.vm == nil {
		return ErrOpNotSupp
	}
	return p.k.vm.MemWrite(p, addr, src)
}
