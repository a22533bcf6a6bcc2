package disk

import (
	"strings"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// firstNonZero returns the index of the first non-zero byte, or -1.
func firstNonZero(p []byte) int {
	for i, c := range p {
		if c != 0 {
			return i
		}
	}
	return -1
}

// wantPanic runs fn and requires a panic whose message contains every
// one of parts.
func wantPanic(t *testing.T, what string, fn func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		msg, _ := r.(string)
		for _, part := range parts {
			if !strings.Contains(msg, part) {
				t.Fatalf("%s: panic %q does not mention %q", what, r, part)
			}
		}
	}()
	fn()
}

// TestRawBounds: a raw access must lie on the device. WriteRaw used to
// truncate a write that ran past the last block and took a bad block
// number only as far as a slice panic.
func TestRawBounds(t *testing.T) {
	const bs = 8192
	for _, tc := range []struct {
		name  string
		blkno int64
		n     int
		ok    bool
	}{
		{"first block", 0, bs, true},
		{"last block", 63, bs, true},
		{"two blocks", 10, 2 * bs, true},
		{"short", 7, 100, true},
		{"empty", 7, 0, true},
		{"negative block", -1, bs, false},
		{"past the end", 64, bs, false},
		{"far past the end", 1 << 40, bs, false},
		{"runs off the last block", 63, bs + 1, false},
		{"two blocks from the last", 63, 2 * bs, false},
	} {
		for _, write := range []bool{false, true} {
			_, _, d := newRig(RAMDisk(64, bs))
			p := make([]byte, tc.n)
			access := func() { d.ReadRaw(tc.blkno, p) }
			if write {
				access = func() { d.WriteRaw(tc.blkno, p) }
			}
			if tc.ok {
				access()
				continue
			}
			wantPanic(t, tc.name, access, "disk: ram:", "off the device")
		}
	}
	// A transfer is held to the same test when it is queued.
	_, _, d := newRig(RZ58(64, bs))
	wantPanic(t, "Strategy past the end", func() {
		d.Strategy(&buf.Buf{Flags: buf.BBusy, Blkno: 64, Bcount: bs, Data: make([]byte, bs)})
	}, "disk: rz58:", "block 64", "off the device")
}

// TestReleaseRezeroesWhatWasWritten: whatever route bytes took to the
// platter — a queued transfer, the RAM disk's inline copy, WriteRaw of
// one block, of several, of part of one — the platter rests all-zero
// and the next disk of that size draws that very memory.
func TestReleaseRezeroesWhatWasWritten(t *testing.T) {
	for _, params := range []Params{RZ58(96, 8192), RAMDisk(96, 8192)} {
		sim.TakeSlabs()
		k, c, d := newRig(params)
		platter := &d.data[0]
		junk := make([]byte, 3*8192)
		for i := range junk {
			junk[i] = 0xA5
		}
		d.WriteRaw(0, junk[:8192])
		d.WriteRaw(40, junk)     // blocks 40–42
		d.WriteRaw(95, junk[:7]) // part of the last block
		run(t, k, func(p *kernel.Proc) {
			for _, blk := range []int64{1, 63, 64, 94} {
				b := c.Getblk(p.Ctx(), d, blk)
				copy(b.Data, junk)
				if err := c.Bwrite(p.Ctx(), b); err != nil {
					t.Errorf("bwrite %d: %v", blk, err)
				}
			}
		})
		d.Release()
		if d.data != nil || d.dirty != nil {
			t.Fatalf("%s: Release left the disk its platter", params.Name)
		}
		slabs := sim.TakeSlabs()
		if len(slabs) != 1 || &slabs[0][0] != platter {
			t.Fatalf("%s: %d slabs rest after Release, want the platter alone", params.Name, len(slabs))
		}
		if i := firstNonZero(slabs[0]); i >= 0 {
			t.Fatalf("%s: resting platter has byte %#x at %d (block %d)", params.Name, slabs[0][i], i, i/8192)
		}
		sim.PutSlab(slabs[0])
		if d2 := New(k, params); &d2.data[0] != platter {
			t.Errorf("%s: New did not draw the resting platter", params.Name)
		}
		if rest := sim.TakeSlabs(); len(rest) != 0 {
			t.Errorf("%s: %d slabs still rest after the draw", params.Name, len(rest))
		}
	}
}

// TestUnmarkedWriteSurvivesRelease is the planted-damage trip for the
// scan above and, with the dirtied-slab step of simcheck's
// TestReleaseLeavesMemoryZero, for that one: a write whose mark is
// skipped must leave a non-zero byte behind in the resting platter.
func TestUnmarkedWriteSurvivesRelease(t *testing.T) {
	sim.TakeSlabs()
	_, _, d := newRig(RAMDisk(96, 8192))
	d.WriteRaw(17, []byte{1})
	d.WriteRaw(18, []byte{2})
	d.dirty[0] &^= 1 << 17
	d.Release()
	slabs := sim.TakeSlabs()
	if len(slabs) != 1 {
		t.Fatalf("%d slabs rest, want 1", len(slabs))
	}
	if i := firstNonZero(slabs[0]); i != 17*8192 {
		t.Fatalf("first non-zero byte at %d, want %d: the scan missed the unmarked write", i, 17*8192)
	}
}

// TestReleasedDiskIsDead: after Release every way into the platter
// panics naming the device, rather than reading what may by then be
// another machine's volume.
func TestReleasedDiskIsDead(t *testing.T) {
	k, _, d := newRig(RZ58(64, 8192))
	mt := k.StartTrace(nil).Metrics()
	d.Release()
	block := make([]byte, 8192)
	for _, use := range []struct {
		name string
		fn   func()
	}{
		{"Strategy", func() {
			d.Strategy(&buf.Buf{Flags: buf.BBusy | buf.BRead, Blkno: 1, Bcount: 8192, Data: block})
		}},
		{"Strategy off the device", func() {
			d.Strategy(&buf.Buf{Flags: buf.BBusy | buf.BRead, Blkno: 64, Bcount: 8192, Data: block})
		}},
		{"ReadRaw", func() { d.ReadRaw(1, block) }},
		{"WriteRaw", func() { d.WriteRaw(1, block) }},
		{"Release", d.Release},
	} {
		wantPanic(t, use.name, use.fn, "disk: rz58: used after Release")
	}
	if n := mt.Events(); n != 0 {
		t.Errorf("a released disk traced %d event(s)", n)
	}
}
