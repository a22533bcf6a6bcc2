package buf

import (
	"strings"
	"testing"

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
		b.Resid = b.Bcount
		d.k.Interrupt(func() { d.c.Biodone(b) })
		d.k.Release()
	})
}

func TestDamageTripsInvariants(t *testing.T) {
	for _, kind := range DamageKinds() {
		t.Run(kind, func(t *testing.T) {
			f := newFixture(8)
			f.runProc(t, func(p *kernel.Proc) {
				ctx := p.Ctx()
				b, err := f.c.Bread(ctx, f.dev, 1)
				if err != nil {
					t.Fatalf("bread: %v", err)
				}
				f.c.Brelse(ctx, b)
			})
			if err := f.c.CheckInvariants(); err != nil {
				t.Fatalf("invariants dirty before damage: %v", err)
			}
			f.c.Damage(kind)
			err := f.c.CheckInvariants()
			if err == nil {
				t.Fatalf("damage %q not detected", kind)
			}
			if err.Error() == "" {
				t.Error("empty violation message")
			}
		})
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
		b.Data[0] = 1
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
			b.Data[0] = byte(blk)
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
