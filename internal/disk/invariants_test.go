package disk

import (
	"bytes"
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
			var ie *InvariantError
			if !errors.As(err, &ie) || ie.Name != fault.name || ie.Detail == "" {
				t.Fatalf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
		})
	}
}

// TestSparsePlatter: a block exists only once written. Never-written
// blocks read as zeros through both the driver and the raw helpers, a
// short first write leaves the rest of its block zero, and the raw
// helpers run on across block boundaries and stop at the end of the
// volume.
func TestSparsePlatter(t *testing.T) {
	const bs = 8192
	k, c, d := newRig(RAMDisk(8, bs))
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := c.Bread(ctx, d, 3)
		if err != nil {
			t.Errorf("bread of a never-written block: %v", err)
			return
		}
		if !bytes.Equal(b.Data, make([]byte, bs)) {
			t.Error("never-written block did not read as zeros")
		}
		// Short first write: 100 bytes of a stale, non-zero buffer.
		for i := range b.Data {
			b.Data[i] = 0xAA
		}
		b.Bcount = 100
		if err := c.Bwrite(ctx, b); err != nil {
			t.Errorf("bwrite: %v", err)
		}
	})
	got := make([]byte, bs)
	d.ReadRaw(3, got)
	want := make([]byte, bs)
	for i := 0; i < 100; i++ {
		want[i] = 0xAA
	}
	if !bytes.Equal(got, want) {
		t.Error("short first write: block is not 100 written bytes followed by zeros")
	}
	for blk, data := range d.blocks {
		if (data != nil) != (blk == 3) {
			t.Errorf("block %d materialised = %v; only block 3 was ever written", blk, data != nil)
		}
	}

	// Raw access spanning blocks 6 and 7, then running off the volume.
	span := bytes.Repeat([]byte{1, 2, 3}, bs) // three blocks' worth
	d.WriteRaw(6, span)
	back := make([]byte, 3*bs)
	d.ReadRaw(6, back)
	if !bytes.Equal(back[:2*bs], span[:2*bs]) {
		t.Error("raw write/read across a block boundary lost data")
	}
	if !bytes.Equal(back[2*bs:], make([]byte, bs)) {
		t.Error("raw read past the end of the volume touched the caller's buffer")
	}
	half := make([]byte, bs)
	d.ReadRaw(5, half[:bs/2]) // never written: zeros, short read
	d.ReadRaw(6, half[bs/2:])
	if !bytes.Equal(half[:bs/2], make([]byte, bs/2)) || !bytes.Equal(half[bs/2:], span[:bs/2]) {
		t.Error("short raw reads returned the wrong bytes")
	}
}
