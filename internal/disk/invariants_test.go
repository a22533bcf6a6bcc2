package disk

import (
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// TestCatalogTrips plants one hand-made fault per name in the invariant
// catalog and requires the same-named check to report it.
func TestCatalogTrips(t *testing.T) {
	queued := func(blkno int64) *buf.Buf {
		return &buf.Buf{Flags: buf.BBusy, Blkno: blkno, Bcount: 8192, Data: make([]byte, 8192)}
	}
	faults := []struct {
		name  string
		plant func(d *Disk)
	}{
		{"disk-queue-range", func(d *Disk) { d.queue[0].Blkno = d.p.Blocks }},
		{"disk-queue-busy", func(d *Disk) { d.queue[0].Flags |= buf.BDone }},
		{"disk-active", func(d *Disk) { d.active = false }},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			_, _, d := newRig(RZ58(64, 8192))
			// The first request goes active, the second waits in the queue.
			d.Strategy(queued(1))
			d.Strategy(queued(2))
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("healthy disk: %v", err)
			}
			fault.plant(d)
			err := d.CheckInvariants()
			var ie *kernel.InvariantError
			if !errors.As(err, &ie) || ie.Name != fault.name || ie.Detail == "" {
				t.Fatalf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
		})
	}
}
