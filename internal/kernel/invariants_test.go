package kernel

import (
	"strings"
	"testing"
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
				err = k.CheckPollDrained()
			}
			if err == nil || !strings.Contains(err.Error(), "invariant "+fault.name+" violated") {
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
