package disk

import (
	"testing"

	"kdp/internal/kernel"
)

func TestInjectedReadFault(t *testing.T) {
	k, c, d := newRig(RZ58(256, 8192))
	k.Faults().Arm(kernel.FaultArm{Site: d.ReadSite(), Every: 1, Match: 7, Count: -1, Quiet: true})
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		if _, err := c.Bread(ctx, d, 7); err != kernel.ErrIO {
			t.Errorf("bread on faulty block: %v, want ErrIO", err)
		}
		// Other blocks still work.
		b, err := c.Bread(ctx, d, 8)
		if err != nil {
			t.Errorf("bread clean block: %v", err)
			return
		}
		c.Brelse(ctx, b)
	})
	if d.Errors() != 1 {
		t.Fatalf("errors = %d", d.Errors())
	}
}

func TestInjectedWriteFaultOnSyncDevice(t *testing.T) {
	k, c, d := newRig(RAMDisk(256, 8192))
	k.Faults().Arm(kernel.FaultArm{Site: d.WriteSite(), Every: 1, Match: 3, Count: -1, Quiet: true})
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := c.Getblk(ctx, d, 3)
		if err := c.Bwrite(ctx, b); err != kernel.ErrIO {
			t.Errorf("bwrite on faulty block: %v, want ErrIO", err)
		}
	})
}

func TestCountedFaultExpires(t *testing.T) {
	k, c, d := newRig(RAMDisk(256, 8192))
	k.Faults().Arm(kernel.FaultArm{Site: d.ReadSite(), Every: 1, Match: 5, Count: 2, Quiet: true})
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		for i := 0; i < 2; i++ {
			if _, err := c.Bread(ctx, d, 5); err != kernel.ErrIO {
				t.Errorf("attempt %d: %v, want ErrIO", i, err)
			}
		}
		b, err := c.Bread(ctx, d, 5)
		if err != nil {
			t.Errorf("after fault expiry: %v", err)
			return
		}
		c.Brelse(ctx, b)
	})
	if d.Errors() != 2 {
		t.Fatalf("errors = %d, want 2", d.Errors())
	}
}

func TestClearFaults(t *testing.T) {
	k, c, d := newRig(RAMDisk(256, 8192))
	rd := k.Faults().Arm(kernel.FaultArm{Site: d.ReadSite(), Every: 1, Match: 1, Count: -1, Quiet: true})
	wr := k.Faults().Arm(kernel.FaultArm{Site: d.WriteSite(), Every: 1, Match: 1, Count: -1, Quiet: true})
	if !k.Faults().Remove(rd) || !k.Faults().Remove(wr) {
		t.Fatal("armed defects not found in the plan")
	}
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := c.Bread(ctx, d, 1)
		if err != nil {
			t.Errorf("bread after removing the defects: %v", err)
			return
		}
		c.Brelse(ctx, b)
	})
}

func TestFaultDirectionSelective(t *testing.T) {
	k, c, d := newRig(RAMDisk(256, 8192))
	k.Faults().Arm(kernel.FaultArm{Site: d.WriteSite(), Every: 1, Match: 9, Count: -1, Quiet: true}) // writes only
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b, err := c.Bread(ctx, d, 9)
		if err != nil {
			t.Errorf("read should pass: %v", err)
			return
		}
		c.Brelse(ctx, b)
		wb := c.Getblk(ctx, d, 9)
		if err := c.Bwrite(ctx, wb); err != kernel.ErrIO {
			t.Errorf("write should fail: %v", err)
		}
	})
}

func TestFaultErrorSurfacesThroughBiodoneAsync(t *testing.T) {
	// An async write hitting a fault releases the buffer with BError;
	// the buffer must not stay cached with stale contents.
	k, c, d := newRig(RZ58(256, 8192))
	k.Faults().Arm(kernel.FaultArm{Site: d.WriteSite(), Every: 1, Match: 4, Count: -1, Quiet: true})
	run(t, k, func(p *kernel.Proc) {
		ctx := p.Ctx()
		b := c.Getblk(ctx, d, 4)
		c.Bawrite(ctx, b)
		p.SleepFor(200 * 1e6) // 200ms: let the write fail
		if got := c.Peek(d, 4); got != nil {
			t.Error("errored async buffer still cached")
		}
	})
}
