package disk

import (
	"slices"
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
// platter — a queued transfer, the RAM disk's inline one, WriteRaw of
// one block, of several, of part of one — every block rests all-zero once
// its last holder lets go, and the next disk draws from them. A block the
// platter shares with a buffer rests when the cache lets go too.
func TestReleaseRezeroesWhatWasWritten(t *testing.T) {
	for _, params := range []Params{RZ58(96, 8192), RAMDisk(96, 8192)} {
		sim.TakeBlocks()
		k, c, d := newRig(params)
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
				copy(c.Store(b, true), junk)
				if err := c.Bwrite(p.Ctx(), b); err != nil {
					t.Errorf("bwrite %d: %v", blk, err)
				}
			}
		})
		written := map[*sim.Block]bool{}
		for _, blk := range d.blocks {
			if blk != nil {
				written[blk] = true
			}
		}
		if len(written) != 9 {
			t.Fatalf("%s: %d blocks on the platter, want 9", params.Name, len(written))
		}
		d.Release()
		if d.blocks != nil {
			t.Fatalf("%s: Release left the disk its platter", params.Name)
		}
		if rest := sim.TakeBlocks(); len(rest) != 5 {
			t.Fatalf("%s: %d blocks rest after the disk's Release, want the 5 only it held", params.Name, len(rest))
		} else {
			for _, b := range rest {
				b.Rest()
			}
		}
		c.Release()
		rest := sim.TakeBlocks()
		for _, b := range rest {
			if i := firstNonZero(b.Bytes); i >= 0 {
				t.Fatalf("%s: a resting block has byte %#x at %d", params.Name, b.Bytes[i], i)
			}
			delete(written, b)
			b.Rest()
		}
		if len(written) != 0 {
			t.Fatalf("%s: %d written blocks do not rest after the cache's Release", params.Name, len(written))
		}
		d2 := New(k, params)
		d2.WriteRaw(3, junk[:1])
		if !slices.Contains(rest, d2.blocks[3]) {
			t.Errorf("%s: WriteRaw on a new disk did not draw a resting block", params.Name)
		}
	}
}

// TestSharedBlockRestsAtItsLastReference: a block the platter and a
// buffer share survives either one letting go, and a rewrite of a shared
// block gives the platter a fresh one rather than writing through the
// buffer's.
func TestSharedBlockRestsAtItsLastReference(t *testing.T) {
	sim.TakeBlocks()
	defer sim.TakeBlocks()
	k, c, d := newRig(RAMDisk(96, 8192))
	d.WriteRaw(17, []byte{1})
	run(t, k, func(p *kernel.Proc) {
		b, err := c.Bread(p.Ctx(), d, 17)
		if err != nil {
			t.Fatal(err)
		}
		if d.blocks[17] != b.Lend() || !b.Lend().Shared() {
			t.Fatal("a read did not share the platter's block")
		}
		d.WriteRaw(17, []byte{2})
		if d.blocks[17] == b.Lend() || b.Data[0] != 1 || b.Lend().Shared() {
			t.Fatalf("WriteRaw on a shared block wrote through the buffer's (byte %d)", b.Data[0])
		}
		c.Brelse(p.Ctx(), b)
	})
	if rest := sim.TakeBlocks(); len(rest) != 0 {
		t.Fatalf("%d blocks rest while the platter and the cache hold theirs", len(rest))
	}
	d.Release()
	if rest := sim.TakeBlocks(); len(rest) != 1 {
		t.Fatalf("%d blocks rest after the disk's Release, want the rewritten one", len(rest))
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
