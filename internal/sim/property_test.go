package sim

import (
	"sort"
	"testing"
)

// TestEventOrderProperty is the model-based test of the event heap:
// random schedules, a share of them made from inside handlers while the
// queue is being drained, must fire exactly as a stable sort of
// everything scheduled by (when, seq) orders them.
func TestEventOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := NewRand(seed)
		e := NewEngine()

		type ev struct {
			when Time
			seq  int
		}
		var scheduled, fired []ev
		budget := 200 + r.Intn(200) // events still to schedule from handlers
		var schedule func()
		schedule = func() {
			// Few distinct delays, zero among them, so ties are common.
			delay := Duration(r.Intn(8)) * Millisecond
			x := ev{e.Now().Add(delay), len(scheduled)}
			scheduled = append(scheduled, x)
			e.Schedule(delay, "p", func() {
				fired = append(fired, x)
				for k := r.Intn(3); k > 0 && budget > 0; k-- {
					budget--
					schedule()
				}
			})
		}
		for i := 50 + r.Intn(100); i > 0; i-- {
			schedule()
		}
		for e.RunNext() {
			if e.Pending() == 0 && budget > 0 {
				budget--
				schedule() // the queue refills after draining empty
			}
		}

		want := append([]ev(nil), scheduled...)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].when != want[b].when {
				return want[a].when < want[b].when
			}
			return want[a].seq < want[b].seq
		})
		if len(fired) != len(want) || e.Fired() != uint64(len(want)) {
			t.Fatalf("seed %d: fired %d (engine says %d), want %d", seed, len(fired), e.Fired(), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: event %d fired out of order: %+v vs %+v", seed, i, fired[i], want[i])
			}
		}
	}
}

// TestClockMonotoneProperty: however events interleave with Consume and
// AdvanceTo, the clock never moves backwards.
func TestClockMonotoneProperty(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := NewRand(seed)
		e := NewEngine()
		last := e.Now()
		check := func() {
			if e.Now() < last {
				t.Fatalf("seed %d: clock went backwards: %v -> %v", seed, last, e.Now())
			}
			last = e.Now()
		}
		for i := 0; i < 200; i++ {
			switch r.Intn(4) {
			case 0:
				e.Schedule(Duration(r.Int63n(int64(Millisecond))), "x", check)
			case 1:
				e.Consume(Duration(r.Int63n(int64(100 * Microsecond))))
				check()
			case 2:
				e.RunNext()
				check()
			case 3:
				e.RunDue()
				check()
			}
		}
	}
}
