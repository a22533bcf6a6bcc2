package kernel

import (
	"bytes"
	"math"
	"testing"

	"kdp/internal/sim"
	"kdp/internal/trace"
)

// flakyFile fails the Nth read or write call (1-based), modelling a
// copy fault striking partway through a vectored transfer.
type flakyFile struct {
	data        []byte
	reads       int
	writes      int
	failReadAt  int // 0 = never
	failWriteAt int
}

func (f *flakyFile) Read(ctx Ctx, b []byte, off int64) (int, error) {
	f.reads++
	if f.failReadAt != 0 && f.reads == f.failReadAt {
		return 0, ErrIO
	}
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(b, f.data[off:]), nil
}

func (f *flakyFile) Write(ctx Ctx, b []byte, off int64) (int, error) {
	f.writes++
	if f.failWriteAt != 0 && f.writes == f.failWriteAt {
		return 0, ErrIO
	}
	need := off + int64(len(b))
	if int64(len(f.data)) < need {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], b)
	return len(b), nil
}

func (f *flakyFile) Close(ctx Ctx) error { return nil }

func TestReadvWritevSingleCrossing(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, err := p.Open("/m/v", OCreat|ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		iovs := [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma")}
		want := []byte("alpha-beta-gamma")
		sys0 := p.Syscalls()
		n, err := p.Writev(fd, iovs)
		if err != nil || n != len(want) {
			t.Fatalf("writev: n=%d err=%v", n, err)
		}
		if got := p.Syscalls() - sys0; got != 1 {
			t.Fatalf("writev crossed %d times, want 1", got)
		}
		if _, err := p.Lseek(fd, 0, SeekSet); err != nil {
			t.Fatal(err)
		}
		dst := [][]byte{make([]byte, 4), make([]byte, 7), make([]byte, 5)}
		sys0 = p.Syscalls()
		n, err = p.Readv(fd, dst)
		if err != nil || n != len(want) {
			t.Fatalf("readv: n=%d err=%v", n, err)
		}
		if got := p.Syscalls() - sys0; got != 1 {
			t.Fatalf("readv crossed %d times, want 1", got)
		}
		if got := (Uio{Iovs: dst}).Gather(); !bytes.Equal(got, want) {
			t.Fatalf("readv scattered %q, want %q", got, want)
		}
		// Both calls advanced the shared offset past EOF.
		if n, _ := p.Read(fd, make([]byte, 4)); n != 0 {
			t.Fatalf("offset not advanced: follow-up read got %d bytes", n)
		}
	})
}

func TestReadvShortAtEOFAndEmptyIovecs(t *testing.T) {
	k, fsys := newFDRig()
	fsys.files["/short"] = &memFile{data: []byte("0123456789")}
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/short", ORdOnly)
		iovs := [][]byte{make([]byte, 4), nil, make([]byte, 4), make([]byte, 8)}
		n, err := p.Readv(fd, iovs)
		if err != nil || n != 10 {
			t.Fatalf("readv: n=%d err=%v, want 10", n, err)
		}
		if got := (Uio{Iovs: iovs}).Gather()[:n]; string(got) != "0123456789" {
			t.Fatalf("readv got %q", got)
		}
	})
}

func TestVectoredAccessModeChecks(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		if _, err := p.Readv(99, [][]byte{make([]byte, 1)}); err != ErrBadFD {
			t.Fatalf("readv bad fd: %v", err)
		}
		if _, err := p.Writev(99, [][]byte{make([]byte, 1)}); err != ErrBadFD {
			t.Fatalf("writev bad fd: %v", err)
		}
		w, _ := p.Open("/m/w", OCreat|OWrOnly)
		if _, err := p.Readv(w, [][]byte{make([]byte, 1)}); err != ErrBadFD {
			t.Fatalf("readv on write-only: %v", err)
		}
		_, _ = p.Writev(w, [][]byte{[]byte("x")})
		_ = p.Close(w)
		r, _ := p.Open("/m/w", ORdOnly)
		if _, err := p.Writev(r, [][]byte{[]byte("y")}); err != ErrBadFD {
			t.Fatalf("writev on read-only: %v", err)
		}
	})
}

// TestVectoredPartialProgressLatchesError pins the 4.3BSD semantics: a
// fault striking after part of the vector has transferred makes the
// call report its progress, and the error surfaces on the next
// operation on the descriptor — visible through PendingError without
// being consumed.
func TestVectoredPartialProgressLatchesError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := New(cfg)
	ff := &flakyFile{data: []byte("0123456789abcdef"), failReadAt: 2}
	runFD(t, k, func(p *Proc) {
		fd := p.InstallFile(ff, ORdWr)
		iovs := [][]byte{make([]byte, 4), make([]byte, 4)}
		n, err := p.Readv(fd, iovs)
		if err != nil || n != 4 {
			t.Fatalf("readv across fault: n=%d err=%v, want 4, nil", n, err)
		}
		if perr := p.PendingError(fd); perr != ErrIO {
			t.Fatalf("PendingError = %v, want ErrIO", perr)
		}
		// The latch survives observation and fires exactly once.
		if _, err := p.Read(fd, make([]byte, 4)); err != ErrIO {
			t.Fatalf("latched error not surfaced: %v", err)
		}
		if perr := p.PendingError(fd); perr != nil {
			t.Fatalf("latch not consumed: %v", perr)
		}
		if _, err := p.Read(fd, make([]byte, 4)); err != nil {
			t.Fatalf("read after latch consumed: %v", err)
		}

		// Write side: first iovec lands, the second faults.
		ff.failWriteAt = 2
		wn, werr := p.Writev(fd, [][]byte{[]byte("AAAA"), []byte("BBBB")})
		if werr != nil || wn != 4 {
			t.Fatalf("writev across fault: n=%d err=%v, want 4, nil", wn, werr)
		}
		if _, err := p.Write(fd, []byte("CC")); err != ErrIO {
			t.Fatalf("latched write error not surfaced: %v", err)
		}
	})
	if p := k.PendingCallouts(); p != 0 {
		t.Fatalf("callouts leaked: %d", p)
	}
}

// TestVectoredErrorBeforeProgress: a fault before any byte moves is
// returned immediately, with nothing latched.
func TestVectoredErrorBeforeProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := New(cfg)
	ff := &flakyFile{data: []byte("0123"), failReadAt: 1}
	runFD(t, k, func(p *Proc) {
		fd := p.InstallFile(ff, ORdOnly)
		if _, err := p.Readv(fd, [][]byte{make([]byte, 2)}); err != ErrIO {
			t.Fatalf("readv with up-front fault: %v, want ErrIO", err)
		}
		if perr := p.PendingError(fd); perr != nil {
			t.Fatalf("error latched despite zero progress: %v", perr)
		}
	})
}

func TestSubmitBatchSingleCrossing(t *testing.T) {
	k, fsys := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/b", OCreat|ORdWr)
		r1 := make([]byte, 6)
		sys0 := p.Syscalls()
		res := p.Submit([]BatchOp{
			{Code: BatchWrite, FD: fd, Buf: []byte("hello ")},
			{Code: BatchWrite, FD: fd, Buf: []byte("batch")},
			{Code: BatchLseek, FD: fd, Off: 0, Whence: SeekSet},
			{Code: BatchRead, FD: fd, Buf: r1},
			{Code: BatchFsync, FD: fd},
		})
		if got := p.Syscalls() - sys0; got != 1 {
			t.Fatalf("batch crossed %d times, want 1", got)
		}
		if len(res) != 5 {
			t.Fatalf("results = %d, want one per op", len(res))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		}
		// Program order per fd: writes landed back to back, the lseek
		// rewound, the read sees the first write's bytes.
		if res[0].N != 6 || res[1].N != 5 || res[2].N != 0 || res[3].N != 6 {
			t.Fatalf("counts = %+v", res)
		}
		if string(r1) != "hello " {
			t.Fatalf("batched read got %q", r1)
		}
	})
	if fsys.files["/b"].syncs != 1 {
		t.Fatal("batched fsync not forwarded")
	}
}

// TestSubmitPerOpErrors: one op failing does not abort the batch, and
// every op still gets a result slot.
func TestSubmitPerOpErrors(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/e", OCreat|ORdWr)
		res := p.Submit([]BatchOp{
			{Code: BatchRead, FD: 77, Buf: make([]byte, 4)},  // bad fd
			{Code: BatchWrite, FD: fd, Buf: []byte("still")}, // must run
			{Code: BatchLseek, FD: fd, Off: -99, Whence: SeekSet},
			{Code: BatchLseek, FD: fd, Off: 0, Whence: 42},
			{Code: 99, FD: fd}, // unknown op code
		})
		if len(res) != 5 {
			t.Fatalf("results = %d, want 5", len(res))
		}
		if res[0].Err != ErrBadFD {
			t.Fatalf("bad-fd op: %v", res[0].Err)
		}
		if res[1].Err != nil || res[1].N != 5 {
			t.Fatalf("op after failure: n=%d err=%v", res[1].N, res[1].Err)
		}
		if res[2].Err != ErrInval || res[3].Err != ErrInval || res[4].Err != ErrInval {
			t.Fatalf("errno results = %+v", res[2:])
		}
		// The rejected negative lseek must not have moved the offset
		// set by the successful write.
		if off, _ := p.Lseek(fd, 0, SeekCur); off != 5 {
			t.Fatalf("offset after rejected batched lseek = %d, want 5", off)
		}
		// An empty batch still pays its crossing but emits nothing.
		if res := p.Submit(nil); len(res) != 0 {
			t.Fatalf("empty batch returned %d results", len(res))
		}
	})
}

func TestBatchTraceCounters(t *testing.T) {
	k, _ := newFDRig()
	tr := k.StartTrace(nil)
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/c", OCreat|ORdWr)
		p.Submit([]BatchOp{
			{Code: BatchWrite, FD: fd, Buf: []byte("aa")},
			{Code: BatchWrite, FD: fd, Buf: []byte("bb")},
			{Code: BatchLseek, FD: fd, Off: 0, Whence: SeekSet},
		})
		_, _ = p.Readv(fd, [][]byte{make([]byte, 2), make([]byte, 2)})
		// Single-segment vectors save nothing and must not emit.
		_, _ = p.Writev(fd, [][]byte{[]byte("x")})
	})
	m := tr.Metrics()
	if m.BatchOps != 5 { // 3 batched + 2 readv segments
		t.Fatalf("sys.batch_ops = %d, want 5", m.BatchOps)
	}
	if m.BatchCrossingsSaved != 3 { // (3-1) + (2-1)
		t.Fatalf("sys.batch_crossings_saved = %d, want 3", m.BatchCrossingsSaved)
	}
	if n := m.EventCount[trace.KindKernelBatch]; n != 2 {
		t.Fatalf("kernel.batch events = %d, want 2", n)
	}
}

// TestPollEmptySetFiniteTimeout is the regression test for the
// empty-set sleep: with nothing to watch and a finite timeout, poll
// must block for the whole timeout (not return immediately), then
// return 0 with its callout gone.
func TestPollEmptySetFiniteTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := New(cfg)
	tick := sim.Second / sim.Duration(cfg.HZ)
	baseline := k.PendingCallouts()
	runFD(t, k, func(p *Proc) {
		t0 := p.Now()
		n, err := p.Poll(nil, 50)
		if err != nil || n != 0 {
			t.Fatalf("poll(empty, 50) = %d, %v", n, err)
		}
		elapsed := p.Now().Sub(t0)
		if elapsed < 49*tick || elapsed > 52*tick {
			t.Fatalf("poll slept %v, want ~%v", elapsed, 50*tick)
		}
		if got := k.PendingCallouts(); got != baseline {
			t.Fatalf("callouts after poll = %d, want baseline %d", got, baseline)
		}
	})
	if got := k.PendingCallouts(); got != baseline {
		t.Fatalf("callouts leaked: %d vs baseline %d", k.PendingCallouts(), baseline)
	}
}

// TestPollEmptySetSignalInterruptible: a signal posted mid-sleep breaks
// the empty-set poll early with ErrIntr, and the early wakeup still
// untimeouts the callout (no leak for the remaining ticks to fire on).
func TestPollEmptySetSignalInterruptible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := New(cfg)
	tick := sim.Second / sim.Duration(cfg.HZ)
	baseline := k.PendingCallouts()
	var poller *Proc
	k.Spawn("poller", func(p *Proc) {
		poller = p
		t0 := p.Now()
		n, err := p.Poll(nil, 1000) // 10s: far beyond the signal
		if err != ErrIntr || n != 0 {
			t.Errorf("interrupted poll = %d, %v, want 0, ErrIntr", n, err)
		}
		if elapsed := p.Now().Sub(t0); elapsed > 200*tick {
			t.Errorf("poll not broken early: slept %v", elapsed)
		}
		if got := k.PendingCallouts(); got != baseline {
			t.Errorf("callout leaked after early wakeup: %d vs %d", got, baseline)
		}
	})
	k.Spawn("signaller", func(p *Proc) {
		p.SleepFor(100 * sim.Millisecond)
		k.Post(poller, SIGALRM)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.PendingCallouts(); got != baseline {
		t.Fatalf("callouts leaked: %d vs baseline %d", got, baseline)
	}
}

// TestLseekRejectsNegativeOffsets drives whence × offset combinations
// that resolve to a negative position — including two's-complement
// overflow — and checks EINVAL comes back with the saved offset
// untouched.
func TestLseekRejectsNegativeOffsets(t *testing.T) {
	k, fsys := newFDRig()
	fsys.files["/t"] = &memFile{data: make([]byte, 100)}
	cases := []struct {
		name   string
		whence int
		off    int64
	}{
		{"set-negative", SeekSet, -1},
		{"set-min", SeekSet, math.MinInt64},
		{"cur-underflow", SeekCur, -11},
		{"cur-min-overflow", SeekCur, math.MinInt64},
		{"cur-max-overflow", SeekCur, math.MaxInt64},
		{"end-underflow", SeekEnd, -101},
		{"end-min-overflow", SeekEnd, math.MinInt64},
		{"end-max-overflow", SeekEnd, math.MaxInt64},
	}
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/t", ORdWr)
		const saved = 10
		if _, err := p.Lseek(fd, saved, SeekSet); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			if _, err := p.Lseek(fd, tc.off, tc.whence); err != ErrInval {
				t.Errorf("%s: lseek(%d, %d) = %v, want ErrInval", tc.name, tc.off, tc.whence, err)
			}
			if off, err := p.Lseek(fd, 0, SeekCur); err != nil || off != saved {
				t.Errorf("%s: saved offset mutated: %d, %v", tc.name, off, err)
			}
		}
	})
}

// stubVM is a minimal AddressSpaceProvider: flat per-mapping buffers,
// with an optional fault armed N bytes into any access — the mapped
// iovec whose copy dies partway.
type stubVM struct {
	mem     map[int64][]byte
	faultAt int // 0 = never; else fault after faultAt bytes
}

func (v *stubVM) Mmap(p *Proc, fd int, off, length int64, prot, flags int) (int64, error) {
	addr := int64(0x10000 * (len(v.mem) + 1))
	v.mem[addr] = make([]byte, length)
	return addr, nil
}

func (v *stubVM) Munmap(p *Proc, addr int64) error {
	if _, ok := v.mem[addr]; !ok {
		return ErrInval
	}
	delete(v.mem, addr)
	return nil
}

func (v *stubVM) Msync(p *Proc, addr int64) error { return nil }

func (v *stubVM) MemRead(p *Proc, addr int64, dst []byte) error {
	m, ok := v.mem[addr]
	if !ok {
		return ErrInval
	}
	if v.faultAt > 0 && len(dst) > v.faultAt {
		copy(dst[:v.faultAt], m)
		return ErrIO
	}
	copy(dst, m)
	return nil
}

func (v *stubVM) MemWrite(p *Proc, addr int64, src []byte) error {
	m, ok := v.mem[addr]
	if !ok {
		return ErrInval
	}
	if v.faultAt > 0 && len(src) > v.faultAt {
		copy(m, src[:v.faultAt])
		return ErrIO
	}
	copy(m, src)
	return nil
}

// TestMappedIovecCopyFault models an iovec living in mapped memory: the
// gather loads it with MemRead before the writev, and a fault partway
// through the copy leaves only the prefix — the writev then carries
// exactly the bytes that survived, and the failure is the user's to
// observe, not silently swallowed.
func TestMappedIovecCopyFault(t *testing.T) {
	k, _ := newFDRig()
	vm := &stubVM{mem: map[int64][]byte{}}
	k.SetVM(vm)
	runFD(t, k, func(p *Proc) {
		fd, _ := p.Open("/m/mapped", OCreat|ORdWr)
		addr, err := p.Mmap(fd, 0, 8, ProtRead|ProtWrite, MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, []byte("ABCDEFGH")); err != nil {
			t.Fatalf("store to mapping: %v", err)
		}
		// Healthy gather: both iovecs load, the writev moves all 12.
		iov0 := make([]byte, 8)
		if err := p.MemRead(addr, iov0); err != nil {
			t.Fatalf("load mapped iovec: %v", err)
		}
		n, err := p.Writev(fd, [][]byte{iov0, []byte("TAIL")})
		if err != nil || n != 12 {
			t.Fatalf("writev of mapped iovec: n=%d err=%v", n, err)
		}
		// Faulting gather: the load dies 4 bytes in; the prefix is all
		// that may be handed to the writev.
		vm.faultAt = 4
		iov1 := make([]byte, 8)
		ferr := p.MemRead(addr, iov1)
		if ferr != ErrIO {
			t.Fatalf("partial mapped load = %v, want ErrIO", ferr)
		}
		if string(iov1[:4]) != "ABCD" || iov1[4] != 0 {
			t.Fatalf("fault did not preserve the prefix: %q", iov1)
		}
		// Partial store fault through the mapped side.
		if err := p.MemWrite(addr, []byte("ZZZZZZZZ")); err != ErrIO {
			t.Fatalf("partial mapped store = %v, want ErrIO", err)
		}
		got := make([]byte, 8)
		vm.faultAt = 0
		if err := p.MemRead(addr, got); err != nil {
			t.Fatalf("reload: %v", err)
		}
		if string(got) != "ZZZZEFGH" {
			t.Fatalf("partial store wrote %q, want prefix only", got)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	})
}

// TestMemAccessWithoutVMProvider: a kernel built without VM refuses the
// whole mmap surface with ErrOpNotSupp, MemRead/MemWrite included.
func TestMemAccessWithoutVMProvider(t *testing.T) {
	k, _ := newFDRig()
	runFD(t, k, func(p *Proc) {
		if _, err := p.Mmap(0, 0, 8, ProtRead, MapShared); err != ErrOpNotSupp {
			t.Fatalf("mmap without vm: %v", err)
		}
		if err := p.MemRead(0x1000, make([]byte, 4)); err != ErrOpNotSupp {
			t.Fatalf("memread without vm: %v", err)
		}
		if err := p.MemWrite(0x1000, make([]byte, 4)); err != ErrOpNotSupp {
			t.Fatalf("memwrite without vm: %v", err)
		}
	})
}
