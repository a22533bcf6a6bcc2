package disk

import (
	"slices"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// queueMixed enqueues async reads of the given blocks back to back and
// returns the completion order.
func queueMixed(t *testing.T, blocks []int64) []int64 {
	t.Helper()
	k, c, d := newRig(RZ56(8192, 8192))
	var order []int64
	run(t, k, func(pr *kernel.Proc) {
		ctx := pr.Ctx()
		for _, blk := range blocks {
			b, _, err := c.GetblkNB(ctx, d, blk)
			if err != nil {
				t.Errorf("getblk %d: %v", blk, err)
				return
			}
			b.Flags |= buf.BRead | buf.BCall
			b.Flags &^= buf.BDone
			b.Iodone = func(kk *kernel.Kernel, bb *buf.Buf) {
				order = append(order, bb.Blkno)
				c.Brelse(kk.IntrCtx(), bb)
			}
			d.Strategy(b)
		}
		for len(order) < len(blocks) {
			pr.SleepFor(20 * sim.Millisecond)
		}
	})
	return order
}

func TestElevatorOrdersByBlock(t *testing.T) {
	blocks := []int64{4000, 100, 7000, 2000, 5000}
	order := queueMixed(t, blocks)
	if len(order) != len(blocks) {
		t.Fatalf("completed %d of %d", len(order), len(blocks))
	}
	// First request is taken FIFO (queue had one element when service
	// started); the rest must be served in ascending C-LOOK order from
	// wherever the head ended up.
	for i := 2; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		if cur < prev && cur != minBlk(blocks) {
			// A single wrap to the lowest block is allowed.
			t.Fatalf("elevator order not monotone: %v", order)
		}
	}
}

func minBlk(blocks []int64) int64 {
	m := blocks[0]
	for _, b := range blocks {
		if b < m {
			m = b
		}
	}
	return m
}

// TestQueueForgetsServicedRequests: a request taken off the queue — out
// of the middle, under the elevator — leaves no pointer behind in the
// queue's backing array, and the drive lets go of the active request
// when it completes: a header recycled by its owner is not kept alive,
// or found again, through the disk.
func TestQueueForgetsServicedRequests(t *testing.T) {
	blocks := []int64{4000, 100, 7000, 2000, 5000, 300}
	k, c, d := newRig(RZ56(8192, 8192))
	completed := map[*buf.Buf]bool{}
	check := func(when string) {
		if d.cur != nil && completed[d.cur] {
			t.Errorf("%s: the drive still holds a completed request as active", when)
		}
		for i, q := range d.qmem[:cap(d.qmem)] {
			switch b := q.b; {
			case (i < int(d.qhead) || i >= len(d.qmem)) && b != nil:
				t.Errorf("%s: slot %d outside the queue's slots [%d, %d) still holds %v", when, i, d.qhead, len(d.qmem), b)
			case b != nil && completed[b]:
				t.Errorf("%s: completed %v is still queued", when, b)
			}
		}
	}
	run(t, k, func(pr *kernel.Proc) {
		for _, blk := range blocks {
			b, _, err := c.GetblkNB(pr.Ctx(), d, blk)
			if err != nil {
				t.Errorf("getblk %d: %v", blk, err)
				return
			}
			b.Flags |= buf.BRead | buf.BCall
			b.Flags &^= buf.BDone
			b.Iodone = func(kk *kernel.Kernel, bb *buf.Buf) {
				completed[bb] = true
				check("in biodone")
				c.Brelse(kk.IntrCtx(), bb)
			}
			d.Strategy(b)
		}
		for len(completed) < len(blocks) {
			pr.SleepFor(20 * sim.Millisecond)
			check("between completions")
		}
	})
	if d.cur != nil || d.QueueLen() != 0 {
		t.Fatalf("idle drive holds active %v and %d queued", d.cur, d.QueueLen())
	}
	check("idle")
}

// TestQueueSortedArrivalAmongEquals: the drive queue is kept sorted by
// block as requests arrive, those for one block in arrival order, so the
// elevator's pick is a search; a crash still fails the queued requests
// in the order they arrived.
func TestQueueSortedArrivalAmongEquals(t *testing.T) {
	k, _, d := newRig(RZ58(64, 8192))
	col := &trace.Collector{}
	k.StartTrace(col)
	arrival := []int64{20, 7, 40, 7, 3, 40, 7} // the first goes active at once
	var reqs []*buf.Buf
	for _, blk := range arrival {
		b := queued(blk)
		reqs = append(reqs, b)
		d.Strategy(b)
	}
	var got []*buf.Buf
	for _, q := range d.queue() {
		got = append(got, q.b)
	}
	want := []*buf.Buf{reqs[4], reqs[1], reqs[3], reqs[6], reqs[2], reqs[5]}
	if !slices.Equal(got, want) {
		t.Fatalf("queue holds blocks %v, want 3, 7, 7, 7, 40, 40 in arrival order", blocksOf(got))
	}
	for head, want := range map[int64]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 4, 40: 4, 41: 0} {
		if d.headBlk = head; d.elevatorPick() != want {
			t.Errorf("head at %d: pick %d (block %d), want index %d", head, d.elevatorPick(), d.queue()[d.elevatorPick()].b.Blkno, want)
		}
	}
	col.Reset()
	if n := d.Crash(); n != 6 {
		t.Fatalf("Crash dropped %d requests, want 6", n)
	}
	var failed []int64
	for _, ev := range col.Events {
		if ev.Kind == trace.KindDiskError {
			failed = append(failed, ev.Arg1)
		}
	}
	if !slices.Equal(failed, arrival[1:]) {
		t.Errorf("Crash failed blocks %v, want the arrival order %v", failed, arrival[1:])
	}
}

func blocksOf(bs []*buf.Buf) (blks []int64) {
	for _, b := range bs {
		blks = append(blks, b.Blkno)
	}
	return blks
}

// TestQueueWindowAgainstModel drives the drive queue's moving window
// (enqueue, dequeue) with seeded random arrivals and picks beside a
// plain sorted slice: after every step the queue must hold the model's
// requests in its order, every slot of the backing array outside the
// window must be clear, and a run of picks off the front must leave the
// window's end where it was.
func TestQueueWindowAgainstModel(t *testing.T) {
	_, _, d := newRig(RZ58(64, 8192))
	r := sim.NewRand(7)
	var model []waiting
	check := func(step int) {
		t.Helper()
		if !slices.Equal(d.queue(), model) {
			t.Fatalf("step %d: queue %v, model %v", step, d.queue(), model)
		}
		for i, w := range d.qmem[:cap(d.qmem)] {
			if (i < int(d.qhead) || i >= len(d.qmem)) && w.b != nil {
				t.Fatalf("step %d: slot %d outside [%d, %d) holds block %d", step, i, d.qhead, len(d.qmem), w.b.Blkno)
			}
		}
	}
	for step := range 4000 {
		if n := len(model); n == 0 || r.Intn(5) < 3 {
			w := waiting{queued(r.Int63n(64)), uint32(step)}
			i, _ := slices.BinarySearchFunc(model, w.b.Blkno, func(q waiting, blk int64) int {
				if q.b.Blkno <= blk {
					return -1
				}
				return 1
			})
			d.enqueue(i, w)
			model = slices.Insert(model, i, w)
		} else {
			i := r.Intn(n)
			if got := d.dequeue(i); got != model[i].b {
				t.Fatalf("step %d: dequeue(%d) = block %d, want %d", step, i, got.Blkno, model[i].b.Blkno)
			}
			model = slices.Delete(model, i, i+1)
		}
		check(step)
	}
	end := len(d.qmem)
	for range len(model) / 2 {
		d.dequeue(0)
		model = model[1:]
	}
	check(-1)
	if len(model) > 0 && len(d.qmem) != end {
		t.Errorf("picks off the front moved the window's end from %d to %d", end, len(d.qmem))
	}
}
