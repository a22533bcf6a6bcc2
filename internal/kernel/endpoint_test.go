package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kdp/internal/sim"
)

// readLog records every deliver a ParkedRead makes, so a test can assert
// that each read was completed exactly once and with what.
type readLog struct{ got []string }

func (l *readLog) deliver(tag string) Deliver {
	return func(data []byte, _ *sim.Block, eof bool, err error) {
		l.got = append(l.got, fmt.Sprintf("%s:%q eof=%v err=%v", tag, data, eof, err))
	}
}

func TestParkedRead(t *testing.T) {
	// The endpoint's side of the contract: a buffer take drains.
	var buf []byte
	eof := false
	ready := func() bool { return len(buf) > 0 || eof }
	take := func(max int) ([]byte, *sim.Block, bool) {
		n := min(len(buf), max)
		data := buf[:n]
		buf = buf[n:]
		return data, nil, eof && len(buf) == 0
	}
	boom := errors.New("boom")

	cases := []struct {
		name string
		run  func(r *ParkedRead, l *readLog)
		want []string
	}{
		{"ready delivers at once and parks nothing", func(r *ParkedRead, l *readLog) {
			buf = []byte("abcdef")
			if !r.Read(4, l.deliver("a"), ready(), take) || r.Parked() {
				t.Error("ready read did not complete synchronously")
			}
			if r.Serve(ready(), take) {
				t.Error("Serve delivered with no read parked")
			}
		}, []string{`a:"abcd" eof=false err=<nil>`}},

		{"second read is refused, the first stays parked and is served once", func(r *ParkedRead, l *readLog) {
			if r.Read(4, l.deliver("a"), ready(), take) || !r.Parked() {
				t.Error("read on an empty endpoint did not park")
			}
			if r.Read(9, l.deliver("b"), ready(), take) || !r.Parked() {
				t.Error("refused read disturbed the parked one")
			}
			if r.Serve(ready(), take) {
				t.Error("Serve delivered before the endpoint was ready")
			}
			buf = []byte("abcdef")
			if !r.Serve(ready(), take) || r.Parked() {
				t.Error("Serve did not complete the parked read")
			}
			if r.Serve(ready(), take) {
				t.Error("Serve delivered the same read twice")
			}
		}, []string{`b:"" eof=false err=operation would block`, `a:"abcd" eof=false err=<nil>`}},

		{"end of stream serves a parked read with eof", func(r *ParkedRead, l *readLog) {
			r.Read(4, l.deliver("a"), ready(), take)
			eof = true
			r.Serve(ready(), take)
		}, []string{`a:"" eof=true err=<nil>`}},

		{"cancel: deliver never runs; false when nothing is parked", func(r *ParkedRead, l *readLog) {
			if r.Cancel() {
				t.Error("Cancel on an empty slot reported a read")
			}
			r.Read(4, l.deliver("a"), ready(), take)
			if !r.Cancel() || r.Parked() || r.Cancel() {
				t.Error("Cancel did not withdraw the parked read exactly once")
			}
			buf = []byte("late")
			r.Serve(ready(), take)
			r.Fail(boom)
		}, nil},

		{"fail completes the parked read once with the error", func(r *ParkedRead, l *readLog) {
			r.Fail(boom) // nothing parked: nothing happens
			r.Read(4, l.deliver("a"), ready(), take)
			r.Fail(boom)
			r.Fail(boom)
			if r.Parked() {
				t.Error("failed read still parked")
			}
		}, []string{`a:"" eof=false err=boom`}},
	}
	for _, c := range cases {
		buf, eof = nil, false
		var r ParkedRead
		var l readLog
		c.run(&r, &l)
		if !reflect.DeepEqual(l.got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, l.got, c.want)
		}
	}
}

// queued returns the bytes f holds, oldest first.
func queued(f *FIFO) []byte {
	b := make([]byte, f.Len())
	f.CopyOut(b, 0)
	return b
}

func TestWriteQueue(t *testing.T) {
	var log []string
	done := func(tag string) func(error) {
		return func(err error) { log = append(log, fmt.Sprintf("%s:%v", tag, err)) }
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("%s: completions %q, want %q", step, log, want)
		}
	}
	boom := errors.New("boom")

	q := newWriteQueue(4)
	src := []byte("abc")
	q.Queue(src, nil, done("a")) // fits whole, nobody ahead: admitted on the spot
	src[0] = 'X'                 // the FIFO holds its own copy
	lent := []byte("defgh")
	q.Queue(lent, nil, done("b")) // has to wait: the queue borrows the bytes...
	q.Queue([]byte("i"), nil, done("c"))
	expect("a admitted at once, b and c wait", "a:<nil>")
	if q.Queued() != 2 || q.Writable() {
		t.Fatalf("Queued=%d Writable=%v, want 2 false", q.Queued(), q.Writable())
	}

	q.Admit() // one byte of b
	expect("first admit", "a:<nil>")
	if got := queued(&q.FIFO); string(got) != "abcd" || q.Queued() != 2 {
		t.Fatalf("FIFO=%q Queued=%d", got, q.Queued())
	}
	q.Admit() // full: no progress, no completion
	expect("admit into a full buffer", "a:<nil>")

	q.Drop(3) // the endpoint consumed three bytes
	q.Admit()
	expect("b is four of five bytes in", "a:<nil>")
	if _, err := q.TryWrite([]byte("z")); err != ErrWouldBlock {
		t.Fatalf("TryWrite behind queued writers: %v, want ErrWouldBlock", err)
	}
	lent[4] = 'H' // ...until done: what is admitted later is read then
	q.Drop(4)
	q.Admit() // rest of b, then c, in arrival order
	expect("b then c", "a:<nil>", "b:<nil>", "c:<nil>")
	if got := queued(&q.FIFO); string(got) != "Hi" || q.Queued() != 0 || !q.Writable() {
		t.Fatalf("FIFO=%q Queued=%d Writable=%v", got, q.Queued(), q.Writable())
	}

	// Nonblocking writes admit what fits, then refuse.
	if n, err := q.TryWrite([]byte("jklm")); n != 2 || err != nil {
		t.Fatalf("TryWrite with 2 bytes of room = (%d, %v)", n, err)
	}
	if n, err := q.TryWrite([]byte("n")); n != 0 || err != ErrWouldBlock {
		t.Fatalf("TryWrite into a full buffer = (%d, %v)", n, err)
	}

	// Abort fails every stranded writer exactly once, the part-admitted
	// one included; later admits and aborts find nothing.
	log = nil
	q.Queue([]byte("op"), nil, done("d"))
	q.Queue([]byte("q"), nil, done("e"))
	q.Drop(1)
	q.Admit()
	q.Abort(boom)
	q.Abort(boom)
	q.Drop(q.Len())
	q.Admit()
	expect("abort", "d:boom", "e:boom")

	// Flush admits past Cap and completes in order.
	log = nil
	q.Queue([]byte("12345"), nil, done("f"))
	q.Queue([]byte("6"), nil, done("g"))
	q.Flush()
	expect("flush", "f:<nil>", "g:<nil>")
	if got := queued(&q.FIFO); string(got) != "123456" || q.Queued() != 0 {
		t.Fatalf("after Flush FIFO=%q Queued=%d", got, q.Queued())
	}
}

// TestFIFOAgainstModel runs the FIFO program driver (fifo_fuzz_test.go)
// on seeded random programs long enough to pass through every kind of
// block the queue can end in: its own, shared, and one it came to hold
// alone. Then it holds Drop to its range.
func TestFIFOAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := make([]byte, 3*3000)
		rand.New(rand.NewSource(seed)).Read(prog)
		stored := runFIFO(t, prog)
		if stored == 0 {
			t.Fatalf("seed %d: Push never stored into a block it came to hold alone", seed)
		}
	}

	f := newWriteQueue(0).FIFO
	f.Push([]byte("ab"))
	defer func() {
		if recover() == nil {
			t.Fatal("Drop of more than is queued did not panic")
		}
	}()
	f.Drop(3)
}

func TestAwaitWriteAndSleepUntil(t *testing.T) {
	k := newPollRig()
	boom := errors.New("boom")
	b := []byte("abc")
	// A sink that completes with err: at once, or after ticks.
	sink := func(err error, ticks int) func([]byte, *sim.Block, func(error)) {
		return func(_ []byte, _ *sim.Block, done func(error)) {
			if ticks == 0 {
				done(err)
				return
			}
			k.Timeout(func() { done(err) }, ticks)
		}
	}
	k.Spawn("caller", func(p *Proc) {
		// Completed synchronously: no sleep, the callback's verdict.
		if n, err := AwaitWrite(p.Ctx(), b, sink(nil, 0)); n != 3 || err != nil {
			t.Errorf("synchronous completion = (%d, %v), want (3, nil)", n, err)
		}
		if n, err := AwaitWrite(k.IntrCtx(), b, sink(boom, 0)); n != 0 || err != boom {
			t.Errorf("synchronous failure at interrupt level = (%d, %v), want (0, boom)", n, err)
		}
		// Completed later from a callout: AwaitWrite sleeps until then.
		t0 := p.Now()
		if n, err := AwaitWrite(p.Ctx(), b, sink(boom, 3)); n != 0 || err != boom || p.Now() == t0 {
			t.Errorf("deferred completion = (%d, %v) after %v, want boom after a sleep", n, err, p.Now().Sub(t0))
		}
		// A context that cannot sleep returns at once (NBCtx.Sleep
		// panics, so returning at all proves no sleep was attempted);
		// the write still completes on its own.
		if n, err := AwaitWrite(p.NBCtx(), b, sink(boom, 1)); n != 3 || err != nil {
			t.Errorf("nonblocking AwaitWrite = (%d, %v), want (3, nil)", n, err)
		}
		p.SleepFor(2 * k.Config().TickDuration())

		flag := false
		cond := func() bool { return flag }
		if err := SleepUntil(p.NBCtx(), &flag, PSOCK, cond); err != ErrWouldBlock {
			t.Errorf("SleepUntil that cannot sleep: %v, want ErrWouldBlock", err)
		}
		k.Timeout(func() { flag = true; k.Wakeup(&flag) }, 2)
		if err := SleepUntil(p.Ctx(), &flag, PSOCK, cond); err != nil || !flag {
			t.Errorf("SleepUntil: %v flag=%v", err, flag)
		}
		if err := SleepUntil(p.NBCtx(), &flag, PSOCK, cond); err != nil {
			t.Errorf("SleepUntil with the condition already true: %v", err)
		}
		// A signal breaks an interruptible sleep.
		k.Timeout(func() { k.Post(p, SIGIO) }, 2)
		if err := SleepUntil(p.Ctx(), &flag, PZERO+1, func() bool { return false }); err != ErrIntr {
			t.Errorf("interrupted SleepUntil: %v, want ErrIntr", err)
		}
		p.DeliverSignals()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteQueueAgainstModel drives one WriteQueue with a seeded random
// run of every operation an endpoint performs on it — raw pushes,
// consumption from the front, Queue (bytes left on loan, and bytes taken
// back with Keep and overwritten), Admit, TryWrite, Flush, Abort — beside
// a bytes.Buffer and a plain list of waiting writes. After every step
// the FIFO must read exactly what the model holds, however often it has
// wrapped or been reallocated, and every done must have fired once, in
// order, with the model's verdict.
func TestWriteQueueAgainstModel(t *testing.T) {
	boom := errors.New("boom")
	type pending struct {
		rest []byte
		id   int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newWriteQueue(1 + rng.Intn(96))
		var model bytes.Buffer
		var waiting []pending
		var fired, want []string
		next := byte(0)
		fresh := func(n int) []byte { // n bytes unlike their neighbours
			b := make([]byte, n)
			for i := range b {
				b[i] = next
				next++
			}
			return b
		}
		done := func(id int) func(error) {
			return func(err error) { fired = append(fired, fmt.Sprintf("%d:%v", id, err)) }
		}
		admit := func() { // the model's Admit
			for len(waiting) > 0 && model.Len() < q.Cap {
				w := &waiting[0]
				n := min(len(w.rest), q.Cap-model.Len())
				model.Write(w.rest[:n])
				if w.rest = w.rest[n:]; len(w.rest) > 0 {
					return
				}
				want = append(want, fmt.Sprintf("%d:<nil>", w.id))
				waiting = waiting[1:]
			}
		}
		for step := 0; step < 2000; step++ {
			writable := len(waiting) == 0 && model.Len() < q.Cap
			switch op := rng.Intn(10); op {
			case 0: // a raw push, as a receive buffer takes a segment
				b := fresh(rng.Intn(40))
				q.Push(b)
				model.Write(b)
			case 1, 2, 3: // the endpoint consumes from the front
				n := rng.Intn(model.Len() + 1)
				q.Drop(n)
				model.Next(n)
			case 4, 5, 6:
				b := fresh(rng.Intn(2 * q.Cap))
				if writable && len(b) <= q.Cap-model.Len() {
					model.Write(b)
					want = append(want, fmt.Sprintf("%d:<nil>", step))
				} else {
					waiting = append(waiting, pending{append([]byte(nil), b...), step})
				}
				q.Queue(b, nil, done(step))
			case 7:
				q.Admit()
				admit()
			case 8:
				b := fresh(rng.Intn(q.Cap + 8))
				n, err := q.TryWrite(b)
				wantN, wantErr := min(len(b), q.Cap-model.Len()), error(nil)
				if !writable {
					wantN, wantErr = 0, ErrWouldBlock
				}
				if n != wantN || err != wantErr {
					t.Fatalf("seed %d step %d: TryWrite = (%d, %v), want (%d, %v)", seed, step, n, err, wantN, wantErr)
				}
				model.Write(b[:n])
			case 9:
				if rng.Intn(2) == 0 {
					q.Flush()
					for _, w := range waiting {
						model.Write(w.rest)
						want = append(want, fmt.Sprintf("%d:<nil>", w.id))
					}
				} else {
					q.Abort(boom)
					for _, w := range waiting {
						want = append(want, fmt.Sprintf("%d:boom", w.id))
					}
				}
				waiting = nil
			}
			if got := queued(&q.FIFO); !bytes.Equal(got, model.Bytes()) {
				t.Fatalf("seed %d step %d: FIFO = %v, model %v", seed, step, got, model.Bytes())
			}
			if q.Queued() != len(waiting) || q.Writable() != (len(waiting) == 0 && model.Len() < q.Cap) {
				t.Fatalf("seed %d step %d: Queued=%d Writable=%v, model has %d waiting and %d of %d bytes",
					seed, step, q.Queued(), q.Writable(), len(waiting), model.Len(), q.Cap)
			}
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("seed %d step %d: completions %q, want %q", seed, step, fired, want)
			}
		}
	}
}

// TestQueueKeepsNothingItPopped: values come out in order, a popped slot
// is zeroed at once, and the backing array neither creeps forward nor
// grows — whether the queue empties between bursts or never does.
func TestQueueKeepsNothingItPopped(t *testing.T) {
	var q Queue[*int]
	check := func(when string, bound int) {
		t.Helper()
		all := q.items[:cap(q.items)]
		for i, p := range all {
			if queued := i >= q.head && i < len(q.items); !queued && p != nil {
				t.Fatalf("%s: slot %d of %d still holds a popped value", when, i, len(all))
			}
		}
		if len(all) > bound {
			t.Fatalf("%s: backing array has %d slots, want at most %d", when, len(all), bound)
		}
	}
	in, out := 0, 0
	push := func() { v := in; in++; q.Push(&v) }
	pop := func() {
		t.Helper()
		if **q.Front() != out || *q.Pop() != out {
			t.Fatalf("value %d came out of turn", out)
		}
		out++
	}
	for burst := 0; burst < 200; burst++ { // fills to 5, drains to empty
		for i := 0; i < 5; i++ {
			push()
		}
		for q.Len() > 0 {
			pop()
		}
		check("emptied between bursts", 8)
	}
	push()
	for i := 0; i < 1000; i++ { // never empty: between 1 and 4 queued
		for q.Len() < 4 {
			push()
		}
		for q.Len() > 1 {
			pop()
		}
		check("never emptied", 16)
	}
}

// newWriteQueue returns a cap-byte write queue with spare blocks of its
// own, as an endpoint's draws from its kernel's.
func newWriteQueue(cap int) WriteQueue {
	sp := newSpares(FIFOBlock, 0)
	return WriteQueue{Cap: cap, FIFO: FIFO{Spares: &sp}}
}
