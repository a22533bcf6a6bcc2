package splice

import (
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// heldSink is a Sink that completes its writes only when release says
// so: the buffers behind them stay busy until then.
type heldSink struct{ pending []func(error) }

func (s *heldSink) Read(kernel.Ctx, []byte, int64) (int, error)        { return 0, kernel.ErrOpNotSupp }
func (s *heldSink) Write(_ kernel.Ctx, b []byte, _ int64) (int, error) { return len(b), nil }
func (s *heldSink) Close(kernel.Ctx) error                             { return nil }
func (s *heldSink) SpliceWrite(_ []byte, _ *sim.Block, done func(error)) {
	s.pending = append(s.pending, done)
}

func (s *heldSink) release() {
	for _, done := range s.pending {
		done(nil)
	}
	s.pending = nil
}

// tickLog is a trace sink noting the clock tick of every splice.stall,
// and of every splice.read of logical block lblk.
type tickLog struct {
	k             *kernel.Kernel
	lblk          int64
	reads, stalls []int64
}

func (l *tickLog) Emit(ev trace.Event) {
	switch {
	case ev.Kind == trace.KindSpliceRead && ev.Arg1 == l.lblk:
		l.reads = append(l.reads, l.k.Ticks())
	case ev.Kind == trace.KindSpliceStall:
		l.stalls = append(l.stalls, l.k.Ticks())
	}
}

// TestBusyBlockWaitsForItsRelease: two file→sink splices read one cached
// file. The first holds the buffer of the file's last block busy behind
// a sink that has not completed its write. The second reaches that
// block past its priming batch, at interrupt level, finds the buffer
// busy and cannot sleep for it: it stalls once and waits for that
// buffer. No retry runs while the buffer stays busy, and the block's
// read is issued at the first softclock after the holder's Brelse.
func TestBusyBlockWaitsForItsRelease(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	m.run(t, func(p *kernel.Proc) {
		const last = 5                               // past the priming batch of RefillBatch (5) reads
		makeFile(t, p, "/d0/src", (last+1)*bsize, 3) // cached: every read is a hit
		tick := m.k.Config().TickDuration()
		splice := func(off int64, snk kernel.FileOps) *Handle {
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			_, _ = p.Lseek(src, off, kernel.SeekSet)
			_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
			_, h, err := SpliceOpts(p, src, p.InstallFile(snk, kernel.OWrOnly), EOF, Options{})
			if err != nil {
				t.Fatalf("splice: %v", err)
			}
			return h
		}
		holder := &heldSink{}
		first := splice(last*bsize, holder)
		for len(holder.pending) == 0 { // the block reaches the sink through the callout list
			p.SleepFor(tick)
		}
		log := &tickLog{k: m.k, lblk: last}
		m.k.StartTrace(log)
		second := splice(0, nullSink{})
		p.SleepFor(10 * tick)
		if len(log.reads) != 0 || len(log.stalls) != 1 || second.Moved() != last*bsize {
			t.Errorf("while the buffer stayed busy for 10 ticks: block %d read at ticks %v, stalls at ticks %v, %d bytes moved; want no read, one stall, %d bytes",
				last, log.reads, log.stalls, second.Moved(), last*bsize)
		}
		released := m.k.Ticks()
		holder.release() // the write completes: the buffer is released
		for len(log.reads) == 0 {
			p.SleepFor(tick)
		}
		if len(log.reads) != 1 || log.reads[0] != released+1 {
			t.Errorf("block %d read at ticks %v, want once, at the first softclock after the release at tick %d", last, log.reads, released)
		}
		if err := first.Wait(p); err != nil {
			t.Fatalf("first splice: %v", err)
		}
		if err := second.Wait(p); err != nil || second.Moved() != (last+1)*bsize {
			t.Fatalf("second splice moved %d, %v", second.Moved(), err)
		}
		m.k.StopTrace()
		if len(log.stalls) != 1 {
			t.Errorf("%d stalls for one wait", len(log.stalls))
		}
	})
}
