package buf

import (
	"strings"
	"testing"

	"kdp/internal/sim"
)

// TestBufferMemoryIsOneSlab: the pool's data memory is one allocation
// cut into blockSize pieces whose capacity stops at the piece, so an
// append to one buffer's Data cannot run into its neighbour.
func TestBufferMemoryIsOneSlab(t *testing.T) {
	f := newFixture(8)
	if len(f.c.slab) != 8*8192 {
		t.Fatalf("slab is %d bytes, want %d", len(f.c.slab), 8*8192)
	}
	for i := range f.c.pool {
		d := f.c.pool[i].Data
		if len(d) != 8192 || cap(d) != 8192 || &d[0] != &f.c.slab[i*8192] {
			t.Fatalf("buffer %d: len %d cap %d, at slab offset %d?", i, len(d), cap(d), i*8192)
		}
	}
	grown := append(f.c.pool[0].Data, 0xFF)
	if grown[8192] != 0xFF || f.c.pool[1].Data[0] != 0 {
		t.Error("append to buffer 0 wrote into buffer 1")
	}
	if allocs := testing.AllocsPerRun(5, func() { NewCache(f.k, 400, 8192).Release() }); allocs > 8 {
		t.Errorf("NewCache + Release of 400 buffers makes %.0f allocations, want a handful (was 400+)", allocs)
	}
}

// TestReleaseClearsAndRestsTheSlab: every buffer is scribbled on — the
// cached ones through the device, the rest directly — and after Release
// the slab rests all-zero and the next cache of that size draws it. The
// fixture's checks made the touched walk's shadow, which rests beside
// it, cleared too.
func TestReleaseClearsAndRestsTheSlab(t *testing.T) {
	sim.TakeSlabs()
	f := warmFixture(t)
	for i := range f.c.pool {
		f.c.pool[i].Data[8191] = 0x5A
	}
	slab, shadow := &f.c.slab[0], &f.c.ck.mem[0]
	f.c.Release()
	slabs := sim.TakeSlabs()
	if len(slabs) != 2 || &slabs[0][0] != slab || &slabs[1][0] != shadow {
		t.Fatalf("%d slabs rest, want the cache's and its shadow's", len(slabs))
	}
	for _, s := range slabs {
		for i, c := range s {
			if c != 0 {
				t.Fatalf("resting slab has byte %#x at %d", c, i)
			}
		}
	}
	sim.PutSlab(slabs[0])
	if c := NewCache(f.k, 8, 8192); &c.slab[0] != slab {
		t.Error("NewCache did not draw the resting slab")
	}
	if c := NewCache(f.k, 9, 8192); &c.slab[0] == slab {
		t.Error("a cache of another size drew the slab")
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
