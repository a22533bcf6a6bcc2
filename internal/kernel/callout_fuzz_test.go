package kernel

import (
	"slices"
	"testing"
)

// FuzzCalloutList decodes its input, two bytes per operation, into
// Timeout, Park, Wakeup, Untimeout and clock-tick operations on a bare
// kernel and checks the callout list against a map model: every armed
// callout fires exactly once, at the tick its Timeout asked for (the
// next tick for ticks <= 0) or at the first tick after its channel's
// Wakeup, unless it was cancelled first; callouts one Wakeup moved fire
// in park order; and a handler's own Timeout waits for a later tick. The
// kernel catalog is checked after every operation.
//
// Operations (first byte mod 6, second byte the argument):
//
//	0  Timeout(arg%48 - 4)
//	1  Untimeout of handle arg mod the handles armed so far
//	2  arg%4 + 1 ticks
//	3  Timeout(arg%16 - 2) whose handler arms Timeout(arg%5 - 1)
//	4  Park on channel arg%3
//	5  Wakeup of channel arg%3
//
// `go test -fuzz=FuzzCalloutList ./internal/kernel` searches; plain `go
// test` replays the seeds below and testdata/fuzz/FuzzCalloutList.
func FuzzCalloutList(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 2, 3, 2, 3})                    // two timers due together
	f.Add([]byte{0, 4, 0, 14, 1, 1, 2, 3, 2, 3, 2, 3})       // a zero-tick entry ahead of a cancelled timer
	f.Add([]byte{3, 2, 3, 21, 2, 3, 1, 2, 2, 3, 2, 3, 2, 0}) // re-arming handlers, one child cancelled
	f.Add([]byte{0, 0, 0, 47, 1, 0, 1, 0, 2, 1, 0, 9, 2, 3}) // a double cancel, a negative and a long timer
	f.Add([]byte{0, 3, 4, 0, 4, 1, 0, 0, 4, 0, 5, 0, 2, 0})  // two parked on one channel woken behind a due timer
	f.Add([]byte{4, 1, 4, 1, 1, 0, 5, 1, 2, 1, 4, 2, 1, 2})  // a parked callout cancelled on a shared channel, one on a channel nobody wakes
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		k := New(DefaultConfig())
		var (
			handles []Callout
			due     = map[int]int64{} // queued, not fired or cancelled: id -> tick
			fired   []int             // ids fired by the tick in progress
			chans   [3]byte
			parked  [3][]int        // ids parked on each channel, in park order
			woken   = map[int]int{} // id -> its place among those one Wakeup moved
		)
		const noChild = -100
		var arm func(ticks, child int)
		arm = func(ticks, child int) {
			id := len(handles)
			fn := func() { fired = append(fired, id) }
			if child != noChild {
				fn = func() {
					fired = append(fired, id)
					arm(child, noChild)
				}
			}
			handles = append(handles, k.Timeout(fn, ticks))
			due[id] = k.Ticks() + int64(max(ticks, 1))
		}
		wakeup := func(ch int) {
			k.Wakeup(&chans[ch])
			woken = map[int]int{}
			for i, id := range parked[ch] {
				due[id] = k.Ticks() + 1
				woken[id] = i
			}
			parked[ch] = nil
		}
		tick := func() {
			fired = fired[:0]
			k.hardclockIntr()
			now := k.Ticks()
			last := -1
			for _, id := range fired {
				if at, ok := due[id]; !ok || at != now {
					t.Fatalf("tick %d: callout %d fired, due at %d (armed %v)", now, id, at, ok)
				}
				delete(due, id)
				if i, ok := woken[id]; ok {
					if i < last {
						t.Fatalf("tick %d: callout %d fired out of park order", now, id)
					}
					last = i
				}
			}
			woken = map[int]int{}
			for id, at := range due {
				if at <= now {
					t.Fatalf("tick %d: callout %d due at %d did not fire", now, id, at)
				}
			}
		}
		for i := 0; i+1 < len(prog); i += 2 {
			arg := int(prog[i+1])
			switch prog[i] % 6 {
			case 0:
				arm(arg%48-4, noChild)
			case 1:
				if len(handles) == 0 {
					continue
				}
				id := arg % len(handles)
				_, live := due[id]
				for ch := range parked {
					if i := slices.Index(parked[ch], id); i >= 0 {
						parked[ch] = slices.Delete(parked[ch], i, i+1)
						live = true
					}
				}
				if got := k.Untimeout(handles[id]); got != live {
					t.Fatalf("Untimeout of callout %d = %v, want %v", id, got, live)
				}
				delete(due, id)
			case 2:
				for n := arg%4 + 1; n > 0; n-- {
					tick()
				}
			case 3:
				arm(arg%16-2, arg%5-1)
			case 4:
				id, ch := len(handles), arg%3
				handles = append(handles, k.Park(&chans[ch], func() { fired = append(fired, id) }))
				parked[ch] = append(parked[ch], id)
			case 5:
				wakeup(arg % 3)
			}
			if k.PendingCallouts() != len(due) {
				t.Fatalf("%d callouts pending, model has %d", k.PendingCallouts(), len(due))
			}
			k.gen.Bump()
			if err := k.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		for ch := range parked {
			wakeup(ch)
		}
		for len(due) > 0 {
			tick()
		}
		if len(k.sleepq) != 0 {
			t.Fatalf("%d channels left in the sleep table", len(k.sleepq))
		}
		if k.PendingCallouts() != 0 {
			t.Fatalf("%d callouts left after every armed one fired", k.PendingCallouts())
		}
	})
}
