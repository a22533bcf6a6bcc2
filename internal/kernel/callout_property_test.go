package kernel

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"kdp/internal/sim"
)

// TestCalloutOrderProperty queues random timeouts (with random
// cancellations) and verifies the invariants the delta list guarantees:
// every surviving entry fires exactly once, no cancelled entry fires,
// firing ticks never decrease, entries with equal requested ticks fire
// FIFO, and every entry fires at exactly its requested tick (0-tick
// entries at the next softclock). Exact ticks used to slip when
// 0-tick entries occupied the list head and stole the per-tick
// decrement; softclock now applies the decrement to the first entry
// with time remaining, so the property pins absolute ticks.
func TestCalloutOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		r := sim.NewRand(seed)
		k := testKernel()

		type co struct {
			tick  int
			seq   int
			asked int
		}
		var fired []co
		var handles []Callout
		asked := make([]int, 0, 80)
		n := 30 + r.Intn(50)
		for i := 0; i < n; i++ {
			ticks := r.Intn(40)
			seq := i
			ticksCopy := ticks
			h := k.Timeout(func() {
				fired = append(fired, co{int(k.Ticks()), seq, ticksCopy})
			}, ticks)
			handles = append(handles, h)
			asked = append(asked, ticks)
		}
		cancelled := map[int]bool{}
		for i := 0; i < n/5; i++ {
			idx := r.Intn(n)
			if k.Untimeout(handles[idx]) {
				cancelled[idx] = true
			}
		}

		k.Spawn("idle", func(p *Proc) { p.SleepFor(2 * sim.Second) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}

		if len(fired) != n-len(cancelled) {
			t.Fatalf("seed %d: fired %d, want %d", seed, len(fired), n-len(cancelled))
		}
		seen := map[int]bool{}
		lastTick := 0
		for i, f := range fired {
			if cancelled[f.seq] {
				t.Fatalf("seed %d: cancelled entry %d fired", seed, f.seq)
			}
			if seen[f.seq] {
				t.Fatalf("seed %d: entry %d fired twice", seed, f.seq)
			}
			seen[f.seq] = true
			if f.tick < lastTick {
				t.Fatalf("seed %d: firing ticks decreased at %d: %v", seed, i, fired)
			}
			lastTick = f.tick
			min := asked[f.seq]
			if min < 1 {
				min = 1
			}
			if f.tick != min {
				t.Fatalf("seed %d: entry %d fired at tick %d, want exactly %d",
					seed, f.seq, f.tick, min)
			}
		}
		// FIFO among equal requested ticks.
		byAsk := map[int][]int{}
		for _, f := range fired {
			byAsk[f.asked] = append(byAsk[f.asked], f.seq)
		}
		for ask, seqs := range byAsk {
			if !sort.IntsAreSorted(seqs) {
				t.Fatalf("seed %d: entries asking %d ticks fired out of FIFO: %v", seed, ask, seqs)
			}
		}
	}
}

// TestCalloutReentrantQueueing: a handler queueing a ticks=0 callout
// sees it fire on the NEXT softclock, never the current one.
func TestCalloutReentrantQueueing(t *testing.T) {
	k := testKernel()
	var ticksSeen []int64
	depth := 0
	var chain func()
	chain = func() {
		ticksSeen = append(ticksSeen, k.Ticks())
		depth++
		if depth < 5 {
			k.Timeout(chain, 0)
		}
	}
	k.Timeout(chain, 0)
	k.Spawn("idle", func(p *Proc) { p.SleepFor(200 * sim.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticksSeen) != 5 {
		t.Fatalf("chain fired %d times", len(ticksSeen))
	}
	for i := 1; i < len(ticksSeen); i++ {
		if ticksSeen[i] != ticksSeen[i-1]+1 {
			t.Fatalf("re-queued callout did not wait for the next tick: %v", ticksSeen)
		}
	}
}

// TestZeroTickCalloutsDoNotStarveTimers is the minimized regression
// for the softclock decrement bug: a handler re-queueing a ticks=0
// callout every tick kept a zero-delta entry at the head of the list,
// and because the per-tick decrement applied only to the head, the
// positive-delta timers queued behind it never counted down. A
// retransmission timer or retired-connection reap pending while a
// splice streamed (one ticks=0 callout per completion) slipped its
// deadline without bound. The fix decrements the first entry with time
// remaining; the timer must fire at exactly its requested tick.
func TestZeroTickCalloutsDoNotStarveTimers(t *testing.T) {
	k := testKernel()
	const want = 10
	firedAt := int64(-1)
	k.Timeout(func() { firedAt = k.Ticks() }, want)
	// A self-renewing zero-tick chain, as a busy splice generates.
	spins := 0
	var spin func()
	spin = func() {
		if spins++; spins < 100 {
			k.Timeout(spin, 0)
		}
	}
	k.Timeout(spin, 0)
	k.Spawn("idle", func(p *Proc) { p.SleepFor(2 * sim.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != want {
		t.Fatalf("timer fired at tick %d, want %d (starved by zero-tick callouts)", firedAt, want)
	}
}

// TestWakeupQueuesParkedCallouts: Wakeup moves every callout parked on
// its channel to the head of the callout list, in park order and behind
// the entries already due, so they fire at the next softclock; a process
// sleeping on the channel is made runnable at once, and callouts parked
// on other channels stay parked. Untimeout cancels a parked callout, and a
// woken one still on the list.
func TestWakeupQueuesParkedCallouts(t *testing.T) {
	k := testKernel()
	var ch, other byte
	var log []string
	note := func(s string) func() { return func() { log = append(log, s+"@"+strconv.FormatInt(k.Ticks(), 10)) } }
	k.Spawn("sleeper", func(p *Proc) {
		_ = p.Sleep(&ch, PWAIT)
		log = append(log, "sleeper@"+strconv.FormatInt(k.Ticks(), 10))
	})
	k.Spawn("waker", func(p *Proc) {
		tick := k.cfg.TickDuration()
		p.SleepFor(tick) // the sleeper is asleep, at tick 1
		k.Timeout(note("due"), 0)
		k.Timeout(note("late"), 3)
		k.Park(&ch, note("b1"))
		stray := k.Park(&other, note("stray"))
		cancelled := k.Park(&ch, note("cancelled"))
		k.Park(&ch, note("b2"))
		if !k.Untimeout(cancelled) || k.Untimeout(cancelled) {
			t.Error("Untimeout did not cancel a parked callout exactly once")
		}
		if k.PendingCallouts() != 2 {
			t.Errorf("%d callouts pending before the wakeup, want 2 (parked ones are not queued)", k.PendingCallouts())
		}
		k.Wakeup(&ch)
		if k.PendingCallouts() != 4 {
			t.Errorf("%d callouts pending after the wakeup, want 4", k.PendingCallouts())
		}
		woken := k.Park(&ch, note("woken-cancelled"))
		k.Wakeup(&ch)
		if !k.Untimeout(woken) {
			t.Error("Untimeout did not cancel a woken callout on the list")
		}
		if err := k.CheckInvariants(); err != nil {
			t.Error(err)
		}
		p.SleepFor(5 * tick)
		if !k.Untimeout(stray) || len(k.sleepq) != 0 {
			t.Errorf("the callout parked on another channel was not left parked, or the table kept %d channel(s)", len(k.sleepq))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "sleeper@1 due@2 b1@2 b2@2 late@4"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}
