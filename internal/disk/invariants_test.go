package disk

import (
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
)

// queued is a busy request for block blkno.
func queued(blkno int64) *buf.Buf {
	return &buf.Buf{Flags: buf.BBusy, Blkno: blkno, Bcount: 8192, Data: make([]byte, 8192)}
}

// TestCatalogTrips plants one hand-made fault per name in the invariant
// catalog and requires the same-named check to report it.
func TestCatalogTrips(t *testing.T) {
	faults := []struct {
		name  string
		plant func(d *Disk)
	}{
		{"disk-queue-range", func(d *Disk) { d.queue()[0].b.Blkno = d.p.Blocks }},
		{"disk-queue-busy", func(d *Disk) { d.queue()[0].b.Flags |= buf.BDone }},
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
			d.gen.Bump() // a planted write is a modification
			err := d.CheckInvariants()
			var ie *kernel.InvariantError
			if !errors.As(err, &ie) || ie.Name != fault.name || ie.Detail == "" {
				t.Fatalf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
		})
	}
}

// TestAuditReportsUnbumpedWrite: with the audit on, a queued request
// moved by hand without a bump is reported as the disk's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	_, _, d := newRig(RZ58(64, 8192))
	d.Strategy(queued(1))
	d.Strategy(queued(2))
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d.queue()[0].b.Blkno = 3
	var ae *kernel.AuditError
	if err := d.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "disk" {
		t.Errorf("CheckInvariants = %v, want the audit to report the disk", err)
	}
}

// BenchmarkCatalogWalk times one full walk of a disk's catalog with one
// request active and one queued, the generation bumped before each.
func BenchmarkCatalogWalk(b *testing.B) {
	_, _, d := newRig(RZ58(64, 8192))
	d.Strategy(queued(1))
	d.Strategy(queued(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.gen.Bump()
		if err := d.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
