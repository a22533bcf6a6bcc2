package buf

import (
	"testing"

	"kdp/internal/kernel"
)

// fuzzCache is FuzzTouchedWalk's warm 64-buffer cache: 24 cached
// blocks, every third one dirty, then two buffers left busy and one
// held, checked once so that the shadow is seeded.
func fuzzCache(t *testing.T) *fixture {
	f := newFixture(64)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for blk := int64(0); blk < 24; blk++ {
			b, err := f.c.Bread(ctx, f.dev, blk*5)
			if err != nil {
				t.Fatalf("bread: %v", err)
			}
			if blk%3 == 0 {
				f.c.Bdwrite(ctx, b)
			} else {
				f.c.Brelse(ctx, b)
			}
		}
		f.c.Getblk(ctx, f.dev, 200)
		f.c.Getblk(ctx, f.dev, 264) // on 200's chain
		f.c.Hold(ctx, f.c.Getblk(ctx, f.dev, 10))
	})
	if err := f.c.CheckInvariants(); err != nil || !f.c.ck.seeded {
		t.Fatalf("warm cache: %v, seeded %v", err, f.c.ck.seeded)
	}
	return f
}

// TestTouchedWalkAllocatesNothing is the shadow's budget (docs/ARCHITECTURE.md,
// "Who owns which memory"): the walker's arrays are cut from one
// recycled slab, so after the first check made the walker, a cache hit
// and the touched walk after it allocate nothing, and neither does a
// full walk with its seeding.
func TestTouchedWalkAllocatesNothing(t *testing.T) {
	f := warmCache(t, 64)
	ctx := f.k.IntrCtx()
	hit := func() {
		b := &f.c.pool[0]
		f.c.claim(b)
		f.c.Brelse(ctx, b)
		if err := f.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("a hit and its touched walk allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.c.walkFull(f.c.ck) }); n != 0 {
		t.Errorf("a full walk and its seeding allocate %v times, want 0", n)
	}
}

// TestTouchedWalkFindsAVanishedMember: a busy buffer cut off its chain
// by a write to its predecessor alone leaves the counts, which no
// longer include it, short; with nbuf lowered to match, the full walk
// passes that state. The touched walk must still notice that the
// buffer its shadow has on the chain is gone, or a later change of the
// buffer's class would move tallies the full walk no longer keeps: here
// an in-flight readahead the full walk cannot see, which it reports as
// buf-ra-pending.
func TestTouchedWalkFindsAVanishedMember(t *testing.T) {
	f := warmCache(t, 64)
	c := f.c
	a, m := &c.pool[10], &c.pool[11]
	for _, b := range []*Buf{a, m} { // two idle buffers on chain 3
		c.freeRemove(b)
		c.hashRemove(b)
		b.Dev, b.Blkno, b.Flags = f.dev, 3, BBusy|BDone
		c.hashInsert(b)
	}
	a.Blkno = 67 // m is the chain's head, a behind it
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.hashNext = nil // a cut off
	c.rehash(m)
	c.nbuf--
	if c.walkTouched(c.ck) {
		t.Fatal("the touched walk passed a chain that lost a member unmarked")
	}
	if err := c.checkFull(); err != nil {
		t.Fatalf("the full walk fails the cut: %v", err)
	}
	c.seed(c.ck)
	a.Flags |= BRead | BAsync | BReadahead
	a.Flags &^= BDone
	c.raPending++
	c.touch(a)
	if c.ck.seeded && c.walkTouched(c.ck) {
		t.Error("the touched walk passed what the full walk fails")
	}
	wantTrip(t, c.checkFull(), "buf-ra-pending")
}

// FuzzTouchedWalk holds the touched walk to the full walk's verdict. The
// input is a program of writes to a warm cache, each marking what it
// writes as the cache's own writes do: raw writes (flag bits, free and
// hash links to a pool buffer or nil, Blkno, onFree, hashed, nfree,
// raPending, the free list's ends)
// and, while the cache is known good, the list and hash primitives as
// the cache's own operations use them. At each check in the program,
// and at its end, a touched walk that passes must meet a full walk that
// passes; one that fails hands the pass to the full walk, as check does.
// go test replays the corpus in testdata/fuzz/FuzzTouchedWalk.
func FuzzTouchedWalk(f *testing.F) {
	f.Add([]byte{11, 3, 12, 3, 0, 14})
	f.Add([]byte{1, 30, 40, 2, 40, 30, 14})
	f.Add([]byte{13, 5, 77, 14, 5, 9, 14})
	f.Fuzz(func(t *testing.T, prog []byte) {
		fx := fuzzCache(t)
		c, w := fx.c, fx.c.ck
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := prog[0]
			prog = prog[1:]
			return int(v)
		}
		buf := func() *Buf { return &c.pool[next()%len(c.pool)] }
		pick := func() *Buf { // a pool buffer, or nil
			if i := next() % (len(c.pool) + 1); i < len(c.pool) {
				return &c.pool[i]
			}
			return nil
		}
		// good: the last check passed and only primitives ran since, so
		// the lists are finite and the primitives' premises hold.
		good := true
		check := func() bool {
			passed := w.seeded && w.small(len(c.pool)) && c.walkTouched(w)
			err := c.checkFull()
			if passed && err != nil {
				t.Fatalf("the touched walk passed what the full walk fails: %v", err)
			}
			if err == nil && !passed {
				c.seed(w)
			}
			good = err == nil
			return good
		}
		for len(prog) > 0 {
			op := next() % 15
			if op >= 11 && op <= 13 && !good {
				continue
			}
			if op < 11 {
				good = false
			}
			switch op {
			case 0:
				b := buf()
				old := b.Flags
				b.Flags ^= 1 << (next() % 13)
				if b.Flags&placeFlags != old&placeFlags {
					c.rehash(b)
				} else {
					c.touch(b)
				}
			case 1:
				b := buf()
				b.freeNext = pick()
				c.touch(b)
			case 2:
				b := buf()
				b.freePrev = pick()
				c.touch(b)
			case 3:
				b := buf()
				b.hashNext = pick()
				c.rehash(b)
			case 4:
				b := buf()
				b.Blkno = int64(next() % 160)
				c.rehash(b)
			case 5:
				b := buf()
				b.onFree = !b.onFree
				c.touch(b)
			case 6:
				b := buf()
				b.hashed = !b.hashed
				c.rehash(b)
			case 7:
				c.nfree += next()%3 - 1
				c.gen.Bump()
			case 8:
				c.raPending += next()%3 - 1
				c.gen.Bump()
			case 9:
				c.freeHead = pick()
				c.gen.Bump()
			case 10:
				c.freeTail = pick()
				c.gen.Bump()
			case 11: // claim an idle free buffer
				if b := buf(); b.onFree {
					c.freeRemove(b)
					b.Flags |= BBusy
					c.touch(b)
				}
			case 12: // release a busy one to either end
				if b := buf(); b.Flags&(BBusy|BHeld) == BBusy && !b.onFree {
					b.Flags &^= BBusy | BWanted
					c.freePush(b, next()&1 == 0)
				}
			case 13: // give an idle hashed buffer another block
				if b := buf(); b.onFree && b.hashed {
					c.hashRemove(b)
					b.Blkno = int64(next() % 160)
					c.hashInsert(b)
				}
			case 14:
				if !check() {
					return
				}
			}
		}
		check()
	})
}
