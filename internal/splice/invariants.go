package splice

import (
	"slices"

	"kdp/internal/kernel"
)

// This file implements the splice invariant checker used by the
// simcheck harness. Because splice descriptors live entirely inside the
// kernel (no process holds them), checking requires a registry of live
// descriptors; it is maintained only while EnableInvariants(true) is in
// effect, so production runs pay nothing.
//
// Invariant catalog (splice):
//
//	splice-pending-neg     pending read/write counts never go negative
//	splice-pending-bound   pending counts respect the read side's bound:
//	                       watermark + refill batch for a block reader,
//	                       one outstanding read for a source reader
//	splice-done-live       a completed descriptor is not still registered
//	splice-moved-bound     bytes moved never exceed the transfer size
//	splice-hdr-alias       every in-flight write header is memory-less
//	                       (B_NOMEM), paired with its read-side buffer,
//	                       and (unless NoShare) aliases that buffer's
//	                       data area
//	splice-desc-leak       (checked by CheckDrained) no descriptor is
//	                       still live once a machine has run to idle

// liveDescs is in registration order, so which violation is reported
// when several descriptors are damaged replays deterministically.
var (
	invariantsOn bool
	liveDescs    []*desc
)

// EnableInvariants switches descriptor tracking on or off. While on,
// every splice registers its descriptor for CheckInvariants to inspect
// and an aliasing write side tracks its in-flight headers. Not safe to
// toggle while a machine is running.
func EnableInvariants(on bool) {
	invariantsOn = on
	liveDescs = nil
}

func registerDesc(d *desc) {
	if invariantsOn && !d.done {
		liveDescs = append(liveDescs, d)
	}
}

func unregisterDesc(d *desc) {
	if i := slices.Index(liveDescs, d); i >= 0 {
		liveDescs = slices.Delete(liveDescs, i, i+1)
	}
}

// CheckInvariants verifies every live splice descriptor, returning the
// first violation found (nil when consistent, or when tracking is
// disabled). It never sleeps.
func CheckInvariants() error {
	for _, d := range liveDescs {
		if err := d.check(); err != nil {
			return err
		}
	}
	return nil
}

// CheckDrained verifies that no splice descriptor remains live — every
// transfer that started has completed. Call once a machine has run to
// idle; a failure means a splice leaked its kernel hold.
func CheckDrained() error {
	if n := len(liveDescs); n > 0 {
		return kernel.Violation("splice-desc-leak", "%d splice descriptor(s) still live after drain", n)
	}
	return nil
}

func (d *desc) check() error {
	if d.done {
		return kernel.Violation("splice-done-live", "completed descriptor still registered (moved=%d)", d.moved)
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
