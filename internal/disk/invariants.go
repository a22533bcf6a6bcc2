package disk

import (
	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// This file implements the disk-side invariant checker used by the
// simcheck harness. Like the buffer cache's checker, the checks are
// structural — they inspect the request queue without doing I/O — so
// they are callable from any scheduling boundary.
//
// Invariant catalog (disk):
//
//	disk-queue-range     every queued request addresses a block on the
//	                     device with a legal transfer length
//	disk-queue-busy      every queued request is a busy, not-yet-done
//	                     buffer (biodone has not run for it)
//	disk-active          a drained device is inactive and an inactive
//	                     device has an empty queue; SyncCPU devices
//	                     never queue at all

// CheckInvariants verifies the device's structural invariants,
// returning the first violation found (nil if consistent). It never
// sleeps and performs no I/O. It walks when the disk's generation moved
// since its last passing walk (kernel.Gen), or, while requests are
// queued, its cache's: disk-queue-busy reads their flags.
func (d *Disk) CheckInvariants() error {
	var cache uint32
	if len(d.queue()) > 0 {
		cache = d.cache.Gen()
	}
	return d.gen.Check("disk", cache, d.check, d.digest)
}

func (d *Disk) check() error {
	if d.p.SyncCPU && (len(d.queue()) > 0 || d.active) {
		return kernel.Violation("disk-active", "%s: SyncCPU device with queued or active requests", d.p.Name)
	}
	if !d.active && len(d.queue()) > 0 {
		return kernel.Violation("disk-active", "%s: %d queued requests on inactive device", d.p.Name, len(d.queue()))
	}
	for _, q := range d.queue() {
		b := q.b
		if b == nil {
			return kernel.Violation("disk-queue-busy", "%s: nil request in queue", d.p.Name)
		}
		if b.Blkno < 0 || b.Blkno >= d.p.Blocks || b.Bcount <= 0 || b.Bcount > d.p.BlockSize {
			return kernel.Violation("disk-queue-range", "%s: queued %s out of range", d.p.Name, b)
		}
		if !b.HasFlags(buf.BBusy) || b.Flags&buf.BDone != 0 {
			return kernel.Violation("disk-queue-busy", "%s: queued buffer not busy or already done: %s", d.p.Name, b)
		}
	}
	return nil
}

// digest folds in what check reads.
func (d *Disk) digest(g *kernel.Digest) {
	g.Bool(d.active)
	for _, q := range d.queue() {
		b := q.b
		kernel.Ptr(g, b)
		if b != nil {
			g.Int(b.Blkno)
			g.Int(int64(b.Bcount))
			g.Int(int64(b.Flags & (buf.BBusy | buf.BDone)))
		}
	}
}
