package buf

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// checkInvariants verifies the cache's structural invariants: free-list
// count consistency, no buffer both busy and on the free list, and hash
// entries resolving to themselves.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	n := 0
	for b := c.freeHead; b != nil; b = b.freeNext {
		n++
		if b.Flags&BBusy != 0 {
			t.Fatalf("busy buffer %v on free list", b)
		}
		if !b.onFree {
			t.Fatalf("free-list buffer %v not marked onFree", b)
		}
		if b.freeNext == nil && c.freeTail != b {
			t.Fatalf("free tail mismatch")
		}
	}
	if n != c.nfree {
		t.Fatalf("free count %d != list length %d", c.nfree, n)
	}
	for i, head := range c.hash {
		for b := head; b != nil; b = b.hashNext {
			if !b.hashed {
				t.Fatalf("unhashed buffer on chain %d", i)
			}
			if c.bucket(b.Blkno) != i {
				t.Fatalf("buffer %v on wrong hash chain", b)
			}
		}
	}
}

// TestCacheRandomOpsInvariants hammers the cache with random getblk /
// bread / bdwrite / bawrite / brelse / flush / invalidate sequences and
// checks invariants after every step.
func TestCacheRandomOpsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		f := newFixture(12)
		r := sim.NewRand(seed)
		f.runProc(t, func(p *kernel.Proc) {
			ctx := p.Ctx()
			var held []*Buf
			holding := func(blk int64) bool {
				for _, b := range held {
					if b.Blkno == blk {
						return true
					}
				}
				return false
			}
			for step := 0; step < 300; step++ {
				switch r.Intn(10) {
				case 0, 1, 2: // bread + hold
					if len(held) >= 6 {
						break // keep some buffers free
					}
					blk := r.Int63n(64)
					if holding(blk) {
						break // holding a buffer busy and re-requesting
						// it would self-deadlock, as on a real kernel
					}
					b, err := f.c.Bread(ctx, f.dev, blk)
					if err != nil {
						t.Fatalf("seed %d step %d: bread: %v", seed, step, err)
					}
					held = append(held, b)
				case 3, 4, 5: // release one held buffer
					if len(held) == 0 {
						break
					}
					i := r.Intn(len(held))
					f.c.Brelse(ctx, held[i])
					held = append(held[:i], held[i+1:]...)
				case 6: // dirty release
					if len(held) == 0 {
						break
					}
					i := r.Intn(len(held))
					f.c.Store(held[i], false)[0] = byte(step)
					f.c.Bdwrite(ctx, held[i])
					held = append(held[:i], held[i+1:]...)
				case 7: // async write
					if len(held) == 0 {
						break
					}
					i := r.Intn(len(held))
					f.c.Bawrite(ctx, held[i])
					held = append(held[:i], held[i+1:]...)
				case 8: // flush
					if _, err := f.c.FlushDev(ctx, f.dev); err != nil {
						t.Fatalf("seed %d step %d: flush: %v", seed, step, err)
					}
				case 9: // let async work drain
					p.SleepFor(10 * sim.Millisecond)
				}
				checkInvariants(t, f.c)
			}
			for _, b := range held {
				f.c.Brelse(ctx, b)
			}
			p.SleepFor(50 * sim.Millisecond) // drain outstanding async writes
			checkInvariants(t, f.c)
			// Every buffer must be reclaimable at the end.
			if f.c.FreeBuffers() != f.c.NumBuffers() {
				t.Fatalf("seed %d: %d of %d buffers free at end",
					seed, f.c.FreeBuffers(), f.c.NumBuffers())
			}
		})
	}
}

// TestCacheDataIntegrityUnderPressure writes distinct patterns through
// a tiny cache (forcing constant recycling) and verifies every block
// reads back correctly afterwards.
func TestCacheDataIntegrityUnderPressure(t *testing.T) {
	f := newFixture(6)
	const blocks = 48
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < blocks; blk++ {
			b := f.c.Getblk(ctx, f.dev, blk)
			data := f.c.Store(b, false)
			for i := 0; i < 16; i++ {
				data[i] = byte(blk) ^ byte(i*7)
			}
			f.c.Bdwrite(ctx, b)
		}
		// Read everything back; the tiny cache forces most of these to
		// come from the device after eviction-writes.
		for blk := int64(0); blk < blocks; blk++ {
			b, err := f.c.Bread(ctx, f.dev, blk)
			if err != nil {
				t.Fatalf("bread %d: %v", blk, err)
			}
			for i := 0; i < 16; i++ {
				if b.Data[i] != byte(blk)^byte(i*7) {
					t.Fatalf("block %d byte %d corrupted", blk, i)
				}
			}
			f.c.Brelse(ctx, b)
		}
	})
}
