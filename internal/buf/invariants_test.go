package buf

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// badDevice fails every write with an I/O error at interrupt level
// (reads succeed), for exercising the sticky write-error latch.
type badDevice struct {
	*memDevice
}

func (d *badDevice) Strategy(b *Buf) {
	if b.Flags&BRead != 0 {
		d.memDevice.Strategy(b)
		return
	}
	d.k.Hold()
	d.k.Engine().Schedule(d.latency, "baddev", func() {
		b.Flags |= BError
		b.Err = kernel.ErrIO
		d.k.Interrupt(func() { d.c.Biodone(b) })
		d.k.Release()
	})
}

// warmFixture returns an 8-buffer cache whose first three pool buffers
// hold blocks 5, 1 and 9 (in that order), released and valid.
func warmFixture(t testing.TB) *fixture {
	t.Helper()
	return warmCache(t, 8)
}

// warmCache is warmFixture with nbuf buffers.
func warmCache(t testing.TB, nbuf int) *fixture {
	t.Helper()
	f := newFixture(nbuf)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for _, blk := range []int64{5, 1, 9} {
			b, err := f.c.Bread(ctx, f.dev, blk)
			if err != nil {
				t.Fatalf("bread: %v", err)
			}
			f.c.Brelse(ctx, b)
		}
	})
	if err := f.c.CheckInvariants(); err != nil {
		t.Fatalf("invariants dirty before damage: %v", err)
	}
	return f
}

// wantTrip fails unless err is the named invariant's violation.
func wantTrip(t *testing.T, err error, name string) {
	t.Helper()
	var ie *kernel.InvariantError
	if !errors.As(err, &ie) || ie.Name != name || ie.Detail == "" {
		t.Fatalf("CheckInvariants = %v, want a %s violation", err, name)
	}
}

// TestDamageTripsInvariants: every Damage kind trips the check it was
// written to trip — by name, so the catalog cannot silently thin.
func TestDamageTripsInvariants(t *testing.T) {
	want := map[string]string{
		"busy-on-freelist": "buf-free-busy",
		"delwri-undone":    "buf-flag-delwri",
		"hash-key":         "buf-hash-key",
		"ra-pending":       "buf-ra-pending",
		"two-stage":        "buf-ra-pending", // the fixture holds no dirty buffer
	}
	for _, kind := range DamageKinds() {
		t.Run(kind, func(t *testing.T) {
			f := warmFixture(t)
			f.c.Damage(kind)
			wantTrip(t, f.c.CheckInvariants(), want[kind])
		})
	}
}

// TestCatalogTrips plants one hand-made fault per name in the invariant
// catalog, marking what it writes, and requires the same-named check to
// report it. The 64-buffer cache keeps every plant's touched set
// small, so the touched walk checks it first and must fail it; the full
// walk, which then reports, must name it on its own too.
func TestCatalogTrips(t *testing.T) {
	// hashedBuf is the first hashed buffer in pool order (block 5, idle).
	hashedBuf := func(c *Cache) *Buf { return &c.pool[0] }
	// mark sets flags on b, touched.
	mark := func(c *Cache, b *Buf, flags int) {
		b.Flags |= flags
		c.touch(b)
	}
	faults := []struct {
		name  string
		plant func(f *fixture)
	}{
		{"buf-released", func(f *fixture) { f.c.Release() }},
		{"buf-free-link", func(f *fixture) {
			b := f.c.freeHead.freeNext
			b.freePrev = nil
			f.c.touch(b)
		}},
		// Two free buffers taken off the list into a cycle of their own,
		// nfree kept: every link checks out locally, and only the stamps
		// (or a walk of the whole list) tell.
		{"buf-free-link", func(f *fixture) {
			a := f.c.freeHead.freeNext
			b := a.freeNext
			p, n := a.freePrev, b.freeNext
			p.freeNext, n.freePrev = n, p
			a.freePrev, b.freeNext = b, a
			for _, x := range []*Buf{p, a, b, n} {
				f.c.touch(x)
			}
		}},
		{"buf-free-busy", func(f *fixture) { mark(f.c, f.c.freeHead, BBusy) }},
		{"buf-free-flag", func(f *fixture) {
			f.c.freeHead.onFree = false
			f.c.touch(f.c.freeHead)
		}},
		{"buf-hash-key", func(f *fixture) {
			hashedBuf(f.c).hashed = false
			f.c.rehash(hashedBuf(f.c))
		}},
		{"buf-hash-dup", func(f *fixture) {
			twin := f.c.freeHead // never used: invalid, unhashed
			twin.Dev, twin.Blkno, twin.Flags = f.dev, 5, BDone
			f.c.hashInsert(twin)
		}},
		{"buf-flag-wanted", func(f *fixture) { mark(f.c, f.c.freeHead, BWanted) }},
		{"buf-flag-delwri", func(f *fixture) { mark(f.c, f.c.freeHead, BDelwri) }},
		{"buf-flag-call", func(f *fixture) { mark(f.c, f.c.freeHead, BCall) }},
		// On a busy buffer, off the free list: only its chain's checks see it.
		{"buf-flag-call", func(f *fixture) {
			b := hashedBuf(f.c)
			f.c.claim(b)
			mark(f.c, b, BCall)
		}},
		{"buf-pool-account", func(f *fixture) { f.c.nbuf++ }},
		// A held buffer the hash does not know: no walk counts it.
		{"buf-pool-account", func(f *fixture) {
			b := f.c.freeHead // never used: invalid, unhashed
			f.c.freeRemove(b)
			b.Flags |= BHeld
		}},
		{"buf-held-free", func(f *fixture) { mark(f.c, hashedBuf(f.c), BHeld) }},
		{"buf-header-hashed", func(f *fixture) {
			hashedBuf(f.c).Flags |= BNoMem
			f.c.rehash(hashedBuf(f.c))
		}},
		{"buf-ra-flag", func(f *fixture) { mark(f.c, hashedBuf(f.c), BReadahead|BDelwri) }},
		// A delayed write on the block its platter holds: its store went
		// in place, past Store's copy.
		{"buf-block-owned", func(f *fixture) {
			b := hashedBuf(f.c)
			f.dev.shared = map[int64]*sim.Block{b.Blkno: b.blk}
			mark(f.c, b, BDelwri)
		}},
		// A hint that forgot the memory it was copied out to, and one on
		// the zero block, which no copyout leaves.
		{"buf-copy-hint", func(f *fixture) {
			f.c.hint = hashedBuf(f.c).blk
			f.c.hint.Ref()
		}},
		{"buf-copy-hint", func(f *fixture) {
			var mem [1]byte
			f.c.hint, f.c.hintMem = f.c.zero, &mem[0]
		}},
		{"buf-ra-pending", func(f *fixture) { f.c.raPending++ }},
		{"buf-ra-budget", func(f *fixture) {
			// Two well-formed in-flight readaheads against a budget of one.
			for blk := int64(20); blk < 22; blk++ {
				b := f.c.freeHead
				f.c.freeRemove(b)
				b.Dev, b.Blkno, b.Flags = f.dev, blk, BBusy|BRead|BAsync|BReadahead
				f.c.hashInsert(b)
				f.c.raPending++
			}
			f.c.raMax = 1
		}},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			f := warmCache(t, 64)
			fault.plant(f)
			f.c.gen.Bump() // a planted write is a modification
			if w := f.c.ck; w != nil {
				if !w.seeded || !w.small(len(f.c.pool)) {
					t.Fatal("the plant is not the touched walk's to check")
				}
				if f.c.walkTouched(w) {
					t.Error("the touched walk passed the plant")
				}
			}
			wantTrip(t, f.c.CheckInvariants(), fault.name)
			wantTrip(t, f.c.checkFull(), fault.name)
		})
	}
}

// TestAuditReportsUnbumpedWrite: with the audit on, a write the catalog
// passes but no bump covered (a free buffer aged by hand) is reported
// as the cache's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	f := warmFixture(t)
	if err := f.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.c.freeHead.Flags |= BAge
	var ae *kernel.AuditError
	if err := f.c.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "buf" {
		t.Errorf("CheckInvariants = %v, want the audit to report buf", err)
	}
}

// TestAuditReportsUntouchedWrite: with the audit on, a write the
// generation saw but no touch recorded is reported with the buffer it
// moved, and so is a chain head written without its mark.
func TestAuditReportsUntouchedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	for _, plant := range []struct {
		name, detail string
		write        func(c *Cache)
	}{
		{"a buffer", "mem0#5 ", func(c *Cache) { c.pool[0].Flags |= BAge }},
		{"a chain head", "chain head", func(c *Cache) {
			b := &c.pool[0] // block 5, alone on its chain
			c.hash[5] = nil
			c.freeRemove(b)
			c.freePush(b, false) // b is touched; the chain is not marked
		}},
	} {
		f := warmCache(t, 64)
		if err := f.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		plant.write(f.c)
		f.c.gen.Bump()
		var ae *kernel.AuditError
		if err := f.c.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "buf" || !strings.Contains(ae.Detail, plant.detail) {
			t.Errorf("%s: CheckInvariants = %v, want the audit to report buf naming %q", plant.name, err, plant.detail)
		}
	}
}

// TestFlagRulesNeedAPremise: CheckInvariants calls checkBufFlags only for
// a buffer carrying one of flagPremises, which is exact only while every
// rule there is conditional on one of them. Every combination of the low
// 16 flag bits — the thirteen flags and room for three more — without a
// premise, with and without an Iodone handler, must pass; a rule added on
// any other flag fails here until the mask is widened.
func TestFlagRulesNeedAPremise(t *testing.T) {
	iodone := func(*kernel.Kernel, *Buf) {}
	for flags := 0; flags < 1<<16; flags++ {
		if flags&flagPremises != 0 {
			continue
		}
		for _, fn := range []func(*kernel.Kernel, *Buf){nil, iodone} {
			b := &Buf{Flags: flags, Iodone: fn}
			if err := checkBufFlags(b); err != nil {
				t.Fatalf("flags %#x (no premise flag): %v", flags, err)
			}
		}
	}
}

// TestFirstViolationIsDeterministic: with two buffers damaged, which
// violation is reported (the one on the lower hash chain) and which
// buffer Damage("hash-key") picks (the first hashed one in pool order)
// are the same on every run of the same history. Ranging over a Go map
// made both random.
func TestFirstViolationIsDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		f := warmFixture(t)
		f.c.Damage("hash-key")
		if got := f.c.pool[0].Blkno; got != 6 {
			t.Fatalf("run %d: Damage(hash-key) left pool[0] at block %d, want 6 (block 5 bumped)", run, got)
		}
		f.c.pool[2].Blkno += 2 // block 9 too, on chain 1, ahead of block 5's chain
		err := f.c.CheckInvariants()
		wantTrip(t, err, "buf-hash-key")
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d reported %q, run 0 reported %q", run, err, first)
		}
	}
	if !strings.Contains(first, "mem0#11 ") {
		t.Errorf("reported %q, want the buffer on the lower chain (mem0#11)", first)
	}
}

func TestBufStringDescribes(t *testing.T) {
	f := newFixture(8)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := f.c.Bread(ctx, f.dev, 42)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		s := b.String()
		if !strings.Contains(s, "mem0") || !strings.Contains(s, "42") {
			t.Errorf("String() = %q, want device and block number", s)
		}
		f.c.Brelse(ctx, b)
	})
}

// TestAsyncWriteErrorLatches: a delayed write flushed asynchronously
// into a media error has no process to report to; the error must latch
// on the device, read back via WriteError, and be consumed exactly
// once by TakeWriteError.
func TestAsyncWriteErrorLatches(t *testing.T) {
	f := newFixture(8)
	bad := &badDevice{f.dev}
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := f.c.Getblk(ctx, bad, 5)
		f.c.Store(b, false)[0] = 1
		f.c.Bawrite(ctx, b)
		p.SleepFor(10 * sim.Millisecond)
		if f.c.WriteError(bad) == nil {
			t.Fatal("write error did not latch")
		}
		if err := f.c.TakeWriteError(bad); err == nil {
			t.Fatal("TakeWriteError returned nil with an error latched")
		}
		if err := f.c.TakeWriteError(bad); err != nil {
			t.Fatalf("second TakeWriteError = %v, want nil (consumed)", err)
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Errorf("invariants after failed flush: %v", err)
		}
	})
}

// TestInvalidateBlocksDropsListed: only the listed blocks leave the
// cache; dirty victims are written out first so no data is lost.
func TestInvalidateBlocksDropsListed(t *testing.T) {
	f := newFixture(8)
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for _, blk := range []int64{1, 2, 3} {
			b := f.c.Getblk(ctx, f.dev, blk)
			f.c.Store(b, false)[0] = byte(blk)
			f.c.Bdwrite(ctx, b)
		}
		if err := f.c.InvalidateBlocks(ctx, f.dev, []int64{1, 2}); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		if f.c.Peek(f.dev, 1) != nil || f.c.Peek(f.dev, 2) != nil {
			t.Error("invalidated blocks still cached")
		}
		if f.c.Peek(f.dev, 3) == nil {
			t.Error("unlisted block 3 was dropped")
		}
		// The dirty victims were flushed, not discarded.
		if f.dev.data[1*8192] != 1 || f.dev.data[2*8192] != 2 {
			t.Error("invalidated dirty blocks never reached the device")
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Errorf("invariants: %v", err)
		}
	})
}

// TestCacheCrashDropsDirtyAndClearsErrors: Crash models a power cut —
// unwritten delayed writes are lost (counted), cached clean blocks are
// discarded, and any latched write error dies with the data it
// described.
func TestCacheCrashDropsDirtyAndClearsErrors(t *testing.T) {
	f := newFixture(8)
	bad := &badDevice{f.dev}
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		// One clean cached block, one dirty, one latched write error.
		b, err := f.c.Bread(ctx, bad, 1)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		f.c.Brelse(ctx, b)
		b = f.c.Getblk(ctx, bad, 2)
		f.c.Bdwrite(ctx, b)
		b = f.c.Getblk(ctx, bad, 3)
		f.c.Bawrite(ctx, b)
		p.SleepFor(10 * sim.Millisecond)
		if f.c.WriteError(bad) == nil {
			t.Fatal("setup: no write error latched")
		}

		dirtyLost, discarded := f.c.Crash(bad)
		if dirtyLost != 1 {
			t.Errorf("dirtyLost = %d, want 1", dirtyLost)
		}
		if discarded < 2 {
			t.Errorf("discarded = %d, want >= 2", discarded)
		}
		if f.c.Peek(bad, 1) != nil || f.c.Peek(bad, 2) != nil {
			t.Error("crashed device still has cached blocks")
		}
		if err := f.c.WriteError(bad); err != nil {
			t.Errorf("write error survived the crash: %v", err)
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Errorf("invariants after crash: %v", err)
		}
	})
}

// TestWalkFieldsFillOneLine pins Buf's layout: every field the free-list
// and hash walks read sits in the header's first 64 bytes.
func TestWalkFieldsFillOneLine(t *testing.T) {
	var b Buf
	for name, end := range map[string]uintptr{
		"Flags":    unsafe.Offsetof(b.Flags) + unsafe.Sizeof(b.Flags),
		"Dev":      unsafe.Offsetof(b.Dev) + unsafe.Sizeof(b.Dev),
		"Blkno":    unsafe.Offsetof(b.Blkno) + unsafe.Sizeof(b.Blkno),
		"hashNext": unsafe.Offsetof(b.hashNext) + unsafe.Sizeof(b.hashNext),
		"freePrev": unsafe.Offsetof(b.freePrev) + unsafe.Sizeof(b.freePrev),
		"freeNext": unsafe.Offsetof(b.freeNext) + unsafe.Sizeof(b.freeNext),
		"hashed":   unsafe.Offsetof(b.hashed) + unsafe.Sizeof(b.hashed),
		"onFree":   unsafe.Offsetof(b.onFree) + unsafe.Sizeof(b.onFree),
	} {
		if end > 64 {
			t.Errorf("Buf.%s ends at byte %d, past the first 64", name, end)
		}
	}
}

// BenchmarkCatalogWalk times one full walk of the cache's catalog, the
// touched walk's reference, on the 8-buffer fixture.
func BenchmarkCatalogWalk(b *testing.B) {
	f := warmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.c.checkFull(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTouchedWalk times the commonest stretch between two probes on
// simcheck's 64-buffer cache, a hit: a cached buffer claimed off the
// free list and released to its tail, then the pass, by each walk. The
// pass's cost is the difference from op, the stretch alone.
func BenchmarkTouchedWalk(b *testing.B) {
	for _, walk := range []struct {
		name string
		pass func(c *Cache) error
	}{
		{"op", func(*Cache) error { return nil }},
		{"touched", (*Cache).CheckInvariants},
		{"full", (*Cache).checkFull},
	} {
		b.Run(walk.name, func(b *testing.B) {
			f := warmCache(b, 64)
			ctx := f.k.IntrCtx()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := &f.c.pool[i%3] // blocks 5, 1 and 9
				f.c.claim(x)
				f.c.Brelse(ctx, x)
				if err := walk.pass(f.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
