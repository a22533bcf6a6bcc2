package kernel

import (
	"errors"
	"fmt"
	"testing"

	"kdp/internal/sim"
)

// TestCatalogTrips plants hand-made faults for every name in the
// invariant catalog — on a kernel with a sleeper, a queued runnable
// process and a pending callout — and requires the same-named check to
// report each; the fault is undone afterwards so the machine can finish.
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
	}
	k, _ := newFDRig()
	sleeper := k.Spawn("sleeper", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	k.Spawn("sleeper2", func(p *Proc) { _ = p.Sleep(&wchan, PWAIT) })
	k.Spawn("driver", func(p *Proc) {
		k.Timeout(func() {}, 5)
		for _, fault := range faults {
			if err := k.CheckInvariants(); err != nil {
				t.Errorf("before %s: %v", fault.name, err)
				break
			}
			undo := fault.plant(k, sleeper)
			err := k.CheckInvariants()
			if fault.name == "poll-leak" { // the drain-time check
				err = k.CheckDrained()
			}
			if ViolationName(err) != fault.name {
				t.Errorf("CheckInvariants = %v, want a %s violation", err, fault.name)
			}
			undo()
		}
		k.Wakeup(&wchan)
	})
	k.Spawn("runner", func(p *Proc) {})
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
