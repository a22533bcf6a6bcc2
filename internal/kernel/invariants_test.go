package kernel

import (
	"errors"
	"fmt"
	"testing"

	"kdp/internal/sim"
)

// TestCatalogTrips plants hand-made faults for every name in the
// invariant catalog — on a kernel with two sleepers and a callout parked
// on one channel, a queued runnable process and a pending callout — and
// requires the same-named check to
// report each; the fault is undone afterwards so the machine can finish.
// A planted write is a modification like any other, so planting and
// undoing bump the kernel's generation.
func TestCatalogTrips(t *testing.T) {
	var wchan, stray byte
	faults := []struct {
		name  string
		plant func(k *Kernel, sleeper *Proc) (undo func())
	}{
		{"kern-callout-delta", func(k *Kernel, _ *Proc) func() {
			c, d := k.callouts.head, k.callouts.head.delta
			c.delta = -1
			return func() { c.delta = d }
		}},
		{"kern-runq-state", func(k *Kernel, _ *Proc) func() { // queued twice
			k.runq = append(k.runq, k.runq[0])
			return func() { k.runq = k.runq[:len(k.runq)-1] }
		}},
		{"kern-sleepq-state", func(k *Kernel, sl *Proc) func() { // sleeper not on the queue its wchan names
			sl.wchan = &stray
			return func() { sl.wchan = &wchan }
		}},
		{"kern-sleepq-state", func(k *Kernel, _ *Proc) func() { // empty queue left behind
			k.sleepq[&stray] = sleepQueue{}
			return func() { delete(k.sleepq, &stray) }
		}},
		{"kern-sleepq-state", func(k *Kernel, sl *Proc) func() { // a runnable process on a sleep queue
			tail := k.sleepq[&wchan].tail
			tail.sleepNext = k.runq[0]
			return func() { tail.sleepNext = nil }
		}},
		{"kern-sleepq-state", func(k *Kernel, sl *Proc) func() { // a later sleeper missing from a shared queue
			later := sl.sleepNext
			sl.sleepNext = nil
			return func() { sl.sleepNext = later }
		}},
		{"kern-sleepq-state", func(k *Kernel, sl *Proc) func() { // a sleeper threaded onto its queue twice
			tail := k.sleepq[&wchan].tail
			tail.sleepNext = sl
			return func() { tail.sleepNext = nil }
		}},
		{"kern-sleepq-state", func(k *Kernel, sl *Proc) func() { // a queue holding only a stray
			k.sleepq[&stray] = sleepQueue{head: k.runq[0], tail: k.runq[0]}
			return func() { delete(k.sleepq, &stray) }
		}},
		{"kern-callout-park", func(k *Kernel, _ *Proc) func() { // a parked callout naming another channel
			c := k.sleepq[&wchan].callouts
			c.wchan = &stray
			return func() { c.wchan = &wchan }
		}},
		{"kern-callout-park", func(k *Kernel, _ *Proc) func() { // a callout-list entry parked too
			c := k.callouts.head
			c.wchan = &wchan
			return func() { c.wchan = nil }
		}},
		{"kern-callout-park", func(k *Kernel, _ *Proc) func() { // a parked callout missing from its channel's chain
			q := k.sleepq[&wchan]
			c := q.callouts
			q.callouts, q.lastCallout = nil, nil
			k.sleepq[&wchan] = q
			return func() { q.callouts, q.lastCallout = c, c; k.sleepq[&wchan] = q }
		}},
		{"kern-callout-park", func(k *Kernel, _ *Proc) func() { // parked on a channel nobody sleeps on, and off its chain
			c := k.sleepq[&wchan].callouts
			c.wchan = &stray
			k.sleepq[&stray] = sleepQueue{}
			return func() { c.wchan = &wchan; delete(k.sleepq, &stray) }
		}},
		{"kern-proc-account", func(k *Kernel, _ *Proc) func() {
			k.alive++
			return func() { k.alive-- }
		}},
		{"kern-holds", func(k *Kernel, _ *Proc) func() {
			h := k.holds
			k.holds = -1
			return func() { k.holds = h }
		}},
		{"poll-reg-count", func(k *Kernel, _ *Proc) func() {
			k.pollRegs = -1
			return func() { k.pollRegs = 0 }
		}},
		{"poll-leak", func(k *Kernel, _ *Proc) func() {
			k.pollRegs = 1
			return func() { k.pollRegs = 0 }
		}},
		{"kern-cpu-identity", func(k *Kernel, _ *Proc) func() { // an interrupt's span counted as idle too
			mt, span := k.tr.Metrics(), k.cfg.InterruptCost
			mt.CPUIdle += span
			return func() { mt.CPUIdle -= span }
		}},
	}
	k, _ := newFDRig()
	k.StartTrace(nil)
	sleeper := k.Spawn("sleeper", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	k.Spawn("sleeper2", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	fired := false
	k.Spawn("driver", func(p *Proc) {
		k.Timeout(func() {}, 5)
		k.Park(&wchan, func() { fired = true })
		for _, fault := range faults {
			if err := errors.Join(k.CheckInvariants(), k.CheckClock()); err != nil {
				t.Errorf("before %s: %v", fault.name, err)
				break
			}
			undo := fault.plant(k, sleeper)
			k.gen.Bump()
			err := k.CheckInvariants()
			switch fault.name { // the end-of-run checks
			case "poll-leak":
				err = k.CheckDrained()
			case "kern-cpu-identity":
				err = k.CheckClock()
			}
			if ViolationName(err) != fault.name {
				t.Errorf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
			undo()
			k.gen.Bump()
		}
		k.Wakeup(&wchan)
		p.SleepFor(k.cfg.TickDuration())
	})
	k.Spawn("runner", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("the parked callout did not fire after its channel's wakeup")
	}
}

// TestAuditReportsUnbumpedWrite: a write the catalog would pass but no
// bump covered is what the audit exists to find. With the audit on, a
// hold taken by hand without a bump must be reported as the kernel's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	SetAudit(true)
	defer SetAudit(false)
	k := testKernel()
	k.Spawn("driver", func(p *Proc) {
		k.Timeout(func() {}, 5)
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		k.holds++
		var ae *AuditError
		if err := k.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "kernel" {
			t.Errorf("CheckInvariants = %v, want the audit to report the kernel", err)
		}
		k.holds--
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAllocatesNothing: a passing pass with sleepers, a run queue
// and callouts allocates nothing — it runs at every scheduling boundary
// of a simcheck machine.
func TestCheckAllocatesNothing(t *testing.T) {
	var wchan byte
	k, _ := newFDRig()
	k.Spawn("sleeper", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	k.Spawn("driver", func(p *Proc) {
		k.Timeout(func() {}, 5)
		if n := testing.AllocsPerRun(100, func() {
			if err := k.CheckInvariants(); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("CheckInvariants allocates %v times per passing pass, want 0", n)
		}
		k.Wakeup(&wchan)
	})
	k.Spawn("runner", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestViolationFormat pins the one message layout — every layer's text
// is `invariant <name> violated: <detail>` — and that the name survives
// the wrapping a harness puts around it (simcheck's seed/op/time stamp,
// a fault sweep's "census run:" on top), which is what lets Minimize
// and the tests tell violations apart by errors.As and never by text.
func TestViolationFormat(t *testing.T) {
	stamp := func(err error) error {
		return fmt.Errorf("simcheck: seed %d: %w (during %s, t=%v)", 3, err, "op 4 (w0 read d1/f2)", sim.Time(630848*sim.Microsecond))
	}
	for _, tc := range []struct {
		err        error
		name, text string
	}{
		{Violation("buf-free-busy", "busy buffer on free list: %s", "buf{rz58#1}"), "buf-free-busy",
			"invariant buf-free-busy violated: busy buffer on free list: buf{rz58#1}"},
		{Violation("stream-wnd-neg", "%s: peerWnd=%d advWnd=%d", "c:5002->5000", -1, 0), "stream-wnd-neg",
			"invariant stream-wnd-neg violated: c:5002->5000: peerWnd=-1 advWnd=0"},
		{Violation("poll-leak", "no arguments"), "poll-leak", "invariant poll-leak violated: no arguments"},
		{stamp(Violation("oracle-size", "%s has %d bytes, oracle expects %d", "/d0/f", 1, 2)), "oracle-size",
			"simcheck: seed 3: invariant oracle-size violated: /d0/f has 1 bytes, oracle expects 2 (during op 4 (w0 read d1/f2), t=0.630848s)"},
		{fmt.Errorf("census run: %w", stamp(Violation("fs-ptr-dup", "block %d claimed by inodes %d and %d", 9, 2, 3))), "fs-ptr-dup",
			"census run: simcheck: seed 3: invariant fs-ptr-dup violated: block 9 claimed by inodes 2 and 3 (during op 4 (w0 read d1/f2), t=0.630848s)"},
		{stamp(fmt.Errorf("simulation aborted: %w", ErrIO)), "", "simcheck: seed 3: simulation aborted: " + ErrIO.Error() + " (during op 4 (w0 read d1/f2), t=0.630848s)"},
		{nil, "", ""},
	} {
		if got := ViolationName(tc.err); got != tc.name {
			t.Errorf("ViolationName(%v) = %q, want %q", tc.err, got, tc.name)
		}
		if tc.err != nil && tc.err.Error() != tc.text {
			t.Errorf("Error() = %q\n        want %q", tc.err, tc.text)
		}
		var ie *InvariantError
		if errors.As(tc.err, &ie) != (tc.name != "") || ie != nil && (ie.Name != tc.name || ie.Detail == "") {
			t.Errorf("errors.As(%v) found %+v, want name %q", tc.err, ie, tc.name)
		}
	}
}

// BenchmarkCatalogWalk times one full walk of the scheduler catalog, with
// a sleeper, a run queue and a callout, the generation bumped before
// each so that none is skipped.
func BenchmarkCatalogWalk(b *testing.B) {
	var wchan byte
	k, _ := newFDRig()
	k.Spawn("sleeper", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	k.Spawn("driver", func(p *Proc) {
		k.Timeout(func() {}, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.gen.Bump()
			if err := k.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		}
		k.Wakeup(&wchan)
	})
	k.Spawn("runner", func(p *Proc) {})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
