package disk

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// Fault sites: every transfer the device services is one eligible
// occurrence of the site matching its direction ("disk.<name>.rderr" /
// "disk.<name>.wrerr"), with the block number as the site argument. A
// fire completes the transfer with B_ERROR + ErrIO instead of moving
// data — the interrupt-level error splice's abort-and-drain behaviour
// exists to survive. Faults are armed on the sites through the
// kernel.FaultPlan registry: a defective block is an arm with
// Match: blkno and Every: 1 (Count: -1 for a permanent defect).

// ReadSite returns the disk's read-error fault site ID.
func (d *Disk) ReadSite() kernel.FaultSite { return d.siteRd.ID() }

// WriteSite returns the disk's write-error fault site ID.
func (d *Disk) WriteSite() kernel.FaultSite { return d.siteWr.ID() }

// Errors reports how many transfers failed due to injected faults.
func (d *Disk) Errors() int64 { return d.nerrors }

// checkFault asks the fault plan whether this transfer fails. Every
// transfer is one eligible occurrence of the direction's site.
func (d *Disk) checkFault(b *buf.Buf) bool {
	site := d.siteWr
	if b.Flags&buf.BRead != 0 {
		site = d.siteRd
	}
	if site.Hit(b.Blkno) {
		d.nerrors++
		return true
	}
	return false
}

// failTransfer completes b with an I/O error. BError is read by no
// invariant catalog, so these writes need no generation bump.
func (d *Disk) failTransfer(b *buf.Buf) {
	b.Flags |= buf.BError
	b.Err = kernel.ErrIO
}
