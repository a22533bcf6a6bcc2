package buf

import (
	"slices"
	"strings"
	"testing"

	"kdp/internal/sim"
)

// TestBufferBlocksStopAtTheirEnd: every buffer starts on the cache's
// zero block, and a block a buffer stores into is one of its own whose
// capacity stops at the block, so an append to one buffer's Data cannot
// run into another's. A new cache takes one block, not one per buffer.
func TestBufferBlocksStopAtTheirEnd(t *testing.T) {
	f := newFixture(8)
	for i := range f.c.pool {
		if b := &f.c.pool[i]; b.blk != f.c.zero || &b.Data[0] != &f.c.zero.Bytes[0] {
			t.Fatalf("buffer %d does not start on the zero block", i)
		}
	}
	a, b := &f.c.pool[0], &f.c.pool[1]
	f.c.Store(a, true)
	f.c.Store(b, true)
	if d := a.Data; len(d) != 8192 || cap(d) != 8192 || a.blk.Shared() {
		t.Fatalf("a stored-into buffer: len %d cap %d, shared %v", len(d), cap(d), a.blk.Shared())
	}
	grown := append(a.Data, 0xFF)
	if grown[8192] != 0xFF || b.Data[0] != 0 || f.c.zero.Bytes[0] != 0 {
		t.Error("append to buffer 0 wrote into another block")
	}
	if allocs := testing.AllocsPerRun(5, func() { NewCache(f.k, 400, 8192).Release() }); allocs > 8 {
		t.Errorf("NewCache + Release of 400 buffers makes %.0f allocations, want a handful (was 400+)", allocs)
	}
}

// TestReleaseClearsAndRestsTheSlab: every buffer is scribbled on — the
// cached ones through the device, the rest directly — and after Release
// every block the cache let go of rests all-zero, and the next cache
// draws from them. The fixture's checks made the touched walk's shadow,
// which rests beside them, cleared too, as do the header pool and the
// hash array, which the next cache of that size draws.
func TestReleaseClearsAndRestsTheSlab(t *testing.T) {
	sim.TakeBlocks()
	defer sim.TakeBlocks()
	f := warmFixture(t)
	for i := range f.c.pool {
		f.c.Store(&f.c.pool[i], false)[8191] = 0x5A
	}
	shadow, pool, hash := f.c.ck.mem, f.c.pool, f.c.hash
	f.c.Release()
	if _, tables := sim.Resting(); len(tables) != 2 {
		t.Fatalf("%d tables rest, want the header pool and the hash array", len(tables))
	}
	if pool[0].blk != nil || pool[3].pool != nil || hash[0] != nil {
		t.Error("the header pool or the hash array rests uncleared")
	}
	blocks := sim.TakeBlocks()
	// Each buffer's own block, the zero block and the shadow.
	if len(blocks) != len(pool)+2 || !slices.Contains(blocks, shadow) {
		t.Fatalf("%d blocks rest, want the %d buffers', the zero block and the shadow", len(blocks), len(pool))
	}
	for _, b := range blocks {
		for i, c := range b.Bytes {
			if c != 0 {
				t.Fatalf("resting block has byte %#x at %d", c, i)
			}
		}
		b.Rest()
	}
	c := NewCache(f.k, 8, 8192)
	if !slices.Contains(blocks, c.zero) {
		t.Error("NewCache did not draw a resting block")
	}
	pool, hash = c.pool, c.hash
	c.Release()
	if d := NewCache(f.k, 8, 8192); &d.pool[0] != &pool[0] || &d.hash[0] != &hash[0] {
		t.Error("the next cache of its size did not draw the resting header pool and hash array")
	}
}

// TestReleasedCacheIsDead: getblk in any spelling panics on a released
// cache, as does a second Release.
func TestReleasedCacheIsDead(t *testing.T) {
	f := warmFixture(t)
	f.c.Release()
	ctx := f.k.IntrCtx()
	for _, use := range []struct {
		name string
		fn   func()
	}{
		{"Getblk", func() { f.c.Getblk(ctx, f.dev, 5) }},
		{"GetblkNB", func() { _, _, _ = f.c.GetblkNB(ctx, f.dev, 2) }},
		{"StartReadahead", func() { f.c.StartReadahead(ctx, f.dev, 3) }},
		{"ClaimRead", func() { _, _, _ = f.c.ClaimRead(ctx, f.dev, 4) }},
		{"Release", f.c.Release},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "released") {
					t.Errorf("%s on a released cache: recovered %q", use.name, r)
				}
			}()
			use.fn()
		}()
	}
}
