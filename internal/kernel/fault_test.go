package kernel

import (
	"testing"

	"kdp/internal/sim"
)

// ---- FaultPlan registry semantics ----

func TestFaultArmKthOccurrence(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	a := fp.Arm(FaultArm{Site: "t.site", K: 3, Match: MatchAny})
	var fires []int64
	for i := int64(1); i <= 6; i++ {
		if fp.Hit("t.site", i*10) {
			fires = append(fires, i)
		}
	}
	if len(fires) != 1 || fires[0] != 3 {
		t.Fatalf("K=3 fired at occurrences %v, want [3]", fires)
	}
	if fp.census["t.site"] != 6 {
		t.Fatalf("census = %d, want 6", fp.census["t.site"])
	}
	if a.Fired() != 1 {
		t.Fatalf("fires = %d, want 1", a.Fired())
	}
}

func TestFaultArmEveryNWithCount(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	fp.Arm(FaultArm{Site: "t.every", Every: 2, Match: MatchAny, Count: 2})
	var fires []int
	for i := 1; i <= 10; i++ {
		if fp.Hit("t.every", 0) {
			fires = append(fires, i)
		}
	}
	// Fires at occurrences 2 and 4, then the count is exhausted.
	if len(fires) != 2 || fires[0] != 2 || fires[1] != 4 {
		t.Fatalf("Every=2 Count=2 fired at %v, want [2 4]", fires)
	}
}

func TestFaultArmUnlimitedCount(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	fp.Arm(FaultArm{Site: "t.unl", Every: 3, Match: MatchAny, Count: -1})
	n := 0
	for i := 0; i < 30; i++ {
		if fp.Hit("t.unl", 0) {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("unlimited Every=3 fired %d times over 30 hits, want 10", n)
	}
}

func TestFaultArmMatchFilters(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	a := fp.Arm(FaultArm{Site: "t.match", K: 2, Match: 7})
	// Non-matching occurrences must not advance the arm's count.
	for i := 0; i < 5; i++ {
		if fp.Hit("t.match", 99) {
			t.Fatal("arm fired on a non-matching argument")
		}
	}
	if a.Seen() != 0 {
		t.Fatalf("seen = %d after non-matching hits, want 0", a.Seen())
	}
	if fp.Hit("t.match", 7) {
		t.Fatal("fired on 1st matching occurrence, want 2nd")
	}
	if !fp.Hit("t.match", 7) {
		t.Fatal("did not fire on 2nd matching occurrence")
	}
	// Census counts every hit, matching or not.
	if fp.census["t.match"] != 7 {
		t.Fatalf("census = %d, want 7", fp.census["t.match"])
	}
}

func TestFaultArmZeroCountIsSingleShot(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	fp.Arm(FaultArm{Site: "t.once", Every: 1, Match: MatchAny})
	if !fp.Hit("t.once", 0) {
		t.Fatal("single-shot arm did not fire on first occurrence")
	}
	if fp.Hit("t.once", 0) {
		t.Fatal("single-shot arm fired twice")
	}
}

func TestFaultRemoveDisarms(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	h := fp.Arm(FaultArm{Site: "t.rm", Every: 1, Match: MatchAny, Count: -1})
	if !fp.Hit("t.rm", 0) {
		t.Fatal("armed fault did not fire")
	}
	if !fp.Remove(h) {
		t.Fatal("Remove returned false for an armed handle")
	}
	if fp.Remove(h) {
		t.Fatal("Remove returned true twice for the same handle")
	}
	if fp.Hit("t.rm", 0) {
		t.Fatal("removed arm fired")
	}
	if len(fp.arms) != 0 {
		t.Fatalf("%d site(s) still armed after removal, want 0", len(fp.arms))
	}
}

func TestFaultTwoArmsOneSite(t *testing.T) {
	// Two arms with different filters count occurrences independently.
	k := testKernel()
	fp := k.Faults()
	a := fp.Arm(FaultArm{Site: "t.two", K: 1, Match: 5})
	b := fp.Arm(FaultArm{Site: "t.two", K: 1, Match: 6})
	fp.Hit("t.two", 6)
	if a.Fired() != 0 || b.Fired() != 1 {
		t.Fatalf("fired = %d/%d after arg-6 hit, want 0/1", a.Fired(), b.Fired())
	}
	fp.Hit("t.two", 5)
	if a.Fired() != 1 {
		t.Fatalf("arm on arg 5 fired %d times, want 1", a.Fired())
	}
}

func TestFaultCensusSorted(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	fp.Hit("z.last", 0)
	fp.Hit("a.first", 0)
	fp.Hit("a.first", 0)
	fp.Hit("m.mid", 0)
	c := fp.Census()
	if len(c) != 3 || c[0].Site != "a.first" || c[1].Site != "m.mid" || c[2].Site != "z.last" {
		t.Fatalf("census order wrong: %v", c)
	}
	if c[0].N != 2 {
		t.Fatalf("a.first count = %d, want 2", c[0].N)
	}
}

func TestFaultOnFireHook(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	var gotSite FaultSite
	var gotArg int64
	fp.OnFire = func(site FaultSite, arg int64) { gotSite, gotArg = site, arg }
	fp.Arm(FaultArm{Site: "t.hook", K: 1, Match: MatchAny})
	fp.Hit("t.hook", 42)
	if gotSite != "t.hook" || gotArg != 42 {
		t.Fatalf("OnFire got (%q, %d), want (t.hook, 42)", gotSite, gotArg)
	}
}

func TestFaultArmValidation(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	mustPanic := func(name string, a FaultArm) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Arm did not panic", name)
			}
		}()
		fp.Arm(a)
	}
	mustPanic("empty site", FaultArm{K: 1})
	mustPanic("no K or Every", FaultArm{Site: "t.bad"})
}

// ---- the kernel's own fault site: signal at interruptible sleep ----

func TestSleepSignalFaultSite(t *testing.T) {
	k := testKernel()
	fp := k.Faults()
	arm := fp.Arm(FaultArm{Site: SiteSleepSignal, K: 1, Match: MatchAny})
	var sleepErr error
	var sawSIGIO bool
	p := k.Spawn("victim", func(p *Proc) {
		ch := new(int)
		sleepErr = p.Sleep(ch, PSLEP) // interruptible; fault fires at entry
		sawSIGIO = p.SignalPending(SIGIO)
		p.DeliverSignals()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepErr != ErrIntr {
		t.Fatalf("sleep = %v, want ErrIntr", sleepErr)
	}
	if !sawSIGIO {
		t.Fatal("SIGIO was not pending after the fault fired")
	}
	if arm.Fired() != 1 {
		t.Fatalf("site fired %d times, want 1", arm.Fired())
	}
	if p.State() != ProcExited {
		t.Fatalf("proc state = %v", p.State())
	}
}

func TestSleepSignalSiteUninterruptibleNotEligible(t *testing.T) {
	// Sleeps at or below PZERO are not eligible occurrences: disk waits
	// must not be broken by the sleep-signal site.
	k := testKernel()
	fp := k.Faults()
	fp.Arm(FaultArm{Site: SiteSleepSignal, Every: 1, Match: MatchAny, Count: -1})
	var sleepErr error
	k.Spawn("io", func(p *Proc) {
		ch := new(int)
		k.Engine().Schedule(10*sim.Millisecond, "dev", func() { k.Wakeup(ch) })
		sleepErr = p.Sleep(ch, PRIBIO) // uninterruptible
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepErr != nil {
		t.Fatalf("uninterruptible sleep = %v, want nil", sleepErr)
	}
}

// ---- batch submission: signal stops the batch at an op boundary ----

// sleepyFile blocks its reader until failed with a signal; reads and
// writes count invocations so the test can prove ops after the
// interrupted one never started.
type sleepyFile struct {
	reads, writes int
	ch            int
}

func (f *sleepyFile) Read(ctx Ctx, b []byte, off int64) (int, error) {
	f.reads++
	for {
		if err := ctx.Sleep(&f.ch, PSLEP); err != nil {
			return 0, err
		}
	}
}
func (f *sleepyFile) Write(ctx Ctx, b []byte, off int64) (int, error) {
	f.writes++
	return len(b), nil
}
func (f *sleepyFile) Close(ctx Ctx) error { return nil }

func TestBatchSignalStopsAtOpBoundary(t *testing.T) {
	k := testKernel()
	sf := &sleepyFile{}
	var res []BatchResult
	p := k.Spawn("batcher", func(p *Proc) {
		fd := p.InstallFile(sf, ORdWr)
		buf := make([]byte, 16)
		res = p.Submit([]BatchOp{
			{Code: BatchWrite, FD: fd, Buf: buf}, // completes
			{Code: BatchRead, FD: fd, Buf: buf},  // blocks; signal lands here
			{Code: BatchWrite, FD: fd, Buf: buf}, // must not run
			{Code: BatchLseek, FD: fd, Off: 4, Whence: SeekSet},
		})
		p.DeliverSignals()
	})
	k.Engine().Schedule(20*sim.Millisecond, "sig", func() {
		k.Post(p, SIGALRM)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("res len = %d, want 4", len(res))
	}
	if res[0].Err != nil || res[0].N != 16 {
		t.Fatalf("op0 = {%d %v}, want {16 nil}", res[0].N, res[0].Err)
	}
	if res[1].Err != ErrIntr {
		t.Fatalf("op1 err = %v, want ErrIntr", res[1].Err)
	}
	for i := 2; i < 4; i++ {
		if res[i].Err != ErrIntr {
			t.Fatalf("op%d err = %v, want ErrIntr (not started)", i, res[i].Err)
		}
		if res[i].N != 0 {
			t.Fatalf("op%d N = %d, want 0", i, res[i].N)
		}
	}
	if sf.writes != 1 {
		t.Fatalf("writes = %d, want 1: ops after the interruption ran", sf.writes)
	}
	if sf.reads != 1 {
		t.Fatalf("reads = %d, want 1", sf.reads)
	}
}

// TestBatchSleepSignalFault drives the same boundary through the fault
// plan: arming proc.sleep-signal interrupts the op that sleeps, and the
// batch stops there with ErrIntr latched for the remaining slots.
func TestBatchSleepSignalFault(t *testing.T) {
	k := testKernel()
	k.Faults().Arm(FaultArm{Site: SiteSleepSignal, K: 1, Match: MatchAny})
	sf := &sleepyFile{}
	var res []BatchResult
	k.Spawn("batcher", func(p *Proc) {
		fd := p.InstallFile(sf, ORdWr)
		buf := make([]byte, 8)
		res = p.Submit([]BatchOp{
			{Code: BatchWrite, FD: fd, Buf: buf},
			{Code: BatchRead, FD: fd, Buf: buf},
			{Code: BatchWrite, FD: fd, Buf: buf},
		})
		p.DeliverSignals()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []error{nil, ErrIntr, ErrIntr}
	for i, w := range want {
		if res[i].Err != w {
			t.Fatalf("op%d err = %v, want %v", i, res[i].Err, w)
		}
	}
	if sf.writes != 1 {
		t.Fatalf("writes = %d, want 1", sf.writes)
	}
}
