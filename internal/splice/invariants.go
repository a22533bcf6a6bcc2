package splice

import "kdp/internal/kernel"

// This file implements the splice invariant checker. Splice descriptors
// live entirely inside the kernel (no process holds them), so setup
// tracks each live descriptor on its kernel (kernel.Kernel.Track) and
// the kernel's own CheckInvariants and CheckDrained reach it.
//
// Invariant catalog (splice):
//
//	splice-pending-neg     pending read/write counts never go negative
//	splice-pending-bound   pending counts respect the read side's bound:
//	                       watermark + refill batch for a block reader,
//	                       one outstanding read for a source reader
//	splice-done-live       a completed descriptor is not still tracked
//	splice-moved-bound     bytes moved never exceed the transfer size
//	splice-hdr-alias       every in-flight write header is memory-less
//	                       (B_NOMEM), paired with its read-side buffer,
//	                       and (unless NoShare) aliases that buffer's
//	                       data area
//	splice-desc-leak       (CheckDrained) no descriptor is still live
//	                       once a machine has run to idle

// CheckDrained reports the descriptor as leaked: it is tracked only
// while live, and a machine that has run to idle has no live splice.
func (d *desc) CheckDrained() error {
	return kernel.Violation("splice-desc-leak", "splice %s still live after drain (moved=%d)", d.label, d.moved)
}

// CheckInvariants verifies the descriptor. Nothing it reads moves on a
// charge-only boundary, so it returns nil there at once.
func (d *desc) CheckInvariants() error {
	if d.k.ChargeOnly() {
		return nil
	}
	if d.done {
		return kernel.Violation("splice-done-live", "completed descriptor still tracked (moved=%d)", d.moved)
	}
	if d.pendingReads < 0 || d.pendingWrites < 0 {
		return kernel.Violation("splice-pending-neg", "pendingReads=%d pendingWrites=%d", d.pendingReads, d.pendingWrites)
	}
	if d.total >= 0 && d.moved > d.total {
		return kernel.Violation("splice-moved-bound", "moved %d of %d bytes", d.moved, d.total)
	}
	if err := d.rd.bound(); err != nil {
		return err
	}
	return d.wr.check()
}
