package buf

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// findEvents returns the collected events of one kind.
func findEvents(col *trace.Collector, kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, ev := range col.Events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestReadaheadBudgetExhaustion covers the window-larger-than-budget
// case: issue stops (returns false) once raPending hits the cap — two
// for a 16-buffer pool — and the in-flight count drains to zero when
// the device completes.
func TestReadaheadBudgetExhaustion(t *testing.T) {
	f := newFixture(16)
	col := &trace.Collector{}
	mt := f.k.StartTrace(col).Metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		if !f.c.StartReadahead(ctx, f.dev, 10) {
			t.Error("readahead 10 refused with budget free")
		}
		if !f.c.StartReadahead(ctx, f.dev, 11) {
			t.Error("readahead 11 refused with budget free")
		}
		if f.c.StartReadahead(ctx, f.dev, 12) {
			t.Error("readahead 12 accepted past the budget")
		}
		if got := f.c.ReadaheadPending(); got != 2 {
			t.Errorf("pending = %d, want 2", got)
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Errorf("invariants with readaheads in flight: %v", err)
		}
		p.SleepFor(10 * sim.Millisecond)
		if got := f.c.ReadaheadPending(); got != 0 {
			t.Errorf("pending after completion = %d, want 0", got)
		}
	})
	if mt.BufRaIssued != 2 {
		t.Errorf("RaIssued = %d, want 2", mt.BufRaIssued)
	}
	evs := findEvents(col, trace.KindBufReadahead)
	if len(evs) != 2 {
		t.Fatalf("got %d buf.readahead events, want 2", len(evs))
	}
	if evs[0].Arg1 != 10 || evs[0].Arg2 != 1 || evs[1].Arg1 != 11 || evs[1].Arg2 != 2 {
		t.Errorf("readahead events = %+v, want blks 10,11 with pending 1,2", evs)
	}
}

// TestReadaheadHitConsumed: a demand Bread that finds a completed
// readahead buffer consumes the BReadahead flag, counts one readahead
// hit, avoids a second device read, and tags the hit event (Arg2 = 1).
func TestReadaheadHitConsumed(t *testing.T) {
	f := newFixture(16)
	col := &trace.Collector{}
	mt := f.k.StartTrace(col).Metrics()
	for i := range f.dev.data[5*8192 : 5*8192+8192] {
		f.dev.data[5*8192+i] = byte(i % 13)
	}
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		if !f.c.StartReadahead(ctx, f.dev, 5) {
			t.Fatal("StartReadahead refused")
		}
		p.SleepFor(10 * sim.Millisecond)
		reads := f.dev.nreads
		b, err := f.c.Bread(ctx, f.dev, 5)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		if f.dev.nreads != reads {
			t.Error("demand read hit the device despite readahead")
		}
		if b.Flags&BReadahead != 0 {
			t.Error("BReadahead not consumed by the demand lookup")
		}
		if b.Data[7] != byte(7%13) {
			t.Errorf("readahead data wrong: %d", b.Data[7])
		}
		f.c.Brelse(ctx, b)
	})
	if mt.BufRaHits != 1 || mt.BufRaWaste != 0 {
		t.Errorf("RaHits=%d RaWaste=%d, want 1/0", mt.BufRaHits, mt.BufRaWaste)
	}
	hits := findEvents(col, trace.KindBufHit)
	if len(hits) != 1 || hits[0].Arg1 != 5 || hits[0].Arg2 != 1 {
		t.Errorf("hit events = %+v, want one for blk 5 with Arg2=1", hits)
	}
}

// TestReadaheadWasteOnInvalidate: a completed readahead that is
// invalidated before any demand reference counts as waste and emits
// the retirement event (Arg2 = -1).
func TestReadaheadWasteOnInvalidate(t *testing.T) {
	f := newFixture(16)
	col := &trace.Collector{}
	mt := f.k.StartTrace(col).Metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		if !f.c.StartReadahead(ctx, f.dev, 9) {
			t.Fatal("StartReadahead refused")
		}
		p.SleepFor(10 * sim.Millisecond)
		if err := f.c.InvalidateDev(ctx, f.dev); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		if err := f.c.CheckInvariants(); err != nil {
			t.Errorf("invariants after invalidate: %v", err)
		}
	})
	if mt.BufRaWaste != 1 || mt.BufRaHits != 0 {
		t.Errorf("RaWaste=%d RaHits=%d, want 1/0", mt.BufRaWaste, mt.BufRaHits)
	}
	var retired bool
	for _, ev := range findEvents(col, trace.KindBufReadahead) {
		if ev.Arg1 == 9 && ev.Arg2 == -1 {
			retired = true
		}
	}
	if !retired {
		t.Error("no buf.readahead retirement event (Arg2 = -1) for blk 9")
	}
}

// TestReadaheadIncoreCovered: a block already cached is reported
// covered without issuing a device read or spending budget.
func TestReadaheadIncoreCovered(t *testing.T) {
	f := newFixture(16)
	mt := f.metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := f.c.Bread(ctx, f.dev, 3)
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		f.c.Brelse(ctx, b)
		if !f.c.StartReadahead(ctx, f.dev, 3) {
			t.Error("cached block reported uncovered")
		}
		if got := f.c.ReadaheadPending(); got != 0 {
			t.Errorf("pending = %d, want 0 (no issue for cached block)", got)
		}
	})
	if mt.BufRaIssued != 0 {
		t.Errorf("RaIssued = %d, want 0", mt.BufRaIssued)
	}
}

func TestReadaheadRejectsOutOfRange(t *testing.T) {
	f := newFixture(16)
	mt := f.metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		if f.c.StartReadahead(ctx, f.dev, -1) {
			t.Error("negative block accepted")
		}
		if f.c.StartReadahead(ctx, f.dev, f.dev.DevBlocks()) {
			t.Error("past-end block accepted")
		}
		if f.c.StartReadahead(ctx, nil, 0) {
			t.Error("nil device accepted")
		}
	})
	if mt.BufRaIssued != 0 {
		t.Errorf("RaIssued = %d, want 0", mt.BufRaIssued)
	}
}

// TestClusteredFlushEmission: adjacent dirty blocks flushed together
// are counted as one cluster run and traced as disk.cluster; the
// isolated block joins no run.
func TestClusteredFlushEmission(t *testing.T) {
	f := newFixture(16)
	col := &trace.Collector{}
	mt := f.k.StartTrace(col).Metrics()
	f.runProc(t, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for _, blk := range []int64{12, 10, 20, 11} {
			b := f.c.Getblk(ctx, f.dev, blk)
			for i := range f.c.Store(b, true) {
				b.Data[i] = byte(blk)
			}
			f.c.Bdwrite(ctx, b)
		}
		n, err := f.c.FlushBlocks(ctx, f.dev, []int64{10, 11, 12, 20})
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		if n != 4 {
			t.Errorf("flushed %d blocks, want 4", n)
		}
	})
	if runs, blocks := mt.EventCount[trace.KindDiskCluster], mt.ClusterLen(); runs != 1 || blocks != 3 {
		t.Errorf("cluster runs=%d blocks=%d, want 1/3", runs, blocks)
	}
	evs := findEvents(col, trace.KindDiskCluster)
	if len(evs) != 1 || evs[0].Arg1 != 10 || evs[0].Arg2 != 3 {
		t.Errorf("disk.cluster events = %+v, want one run [10..12]", evs)
	}
}
