package machine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// warm is a machine in the middle of everything a probe has to look at,
// seen from its process "main", with the trace checker fed since boot.
type warm struct {
	m    *machine.Machine
	p    *kernel.Proc
	tchk *trace.Checker
	// atChargeOnly, when set, is run once by the probe at the next
	// charge-only boundary (kernel.Kernel.ChargeOnly), after its checks.
	atChargeOnly func()
}

// chargeOnly runs fn inside a probe at a charge-only boundary: it charges
// the process a microsecond of kernel time until a charge ends with
// nothing but quiet clock ticks run since it began.
func (w *warm) chargeOnly(tb testing.TB, fn func()) {
	tb.Helper()
	w.atChargeOnly = fn
	for i := 0; i < 100 && w.atChargeOnly != nil; i++ {
		w.p.Use(sim.Microsecond, true)
	}
	if w.atChargeOnly != nil {
		w.atChargeOnly = nil
		tb.Error("rig: 100 charges of a microsecond reached no charge-only boundary")
	}
}

// onWarmMachine runs body in process context on a booted machine in the
// middle of everything a probe has to look at: a retired connection
// (ghosts on both transports) and a live one with unread data, a file
// mapped shared and private with resident and copy-on-write pages, and
// an asynchronous file-to-file splice in flight between two mechanical
// disks, with a trace checker fed since boot. The server listens on
// port and the client binds port+1. The machine's invariants are
// checked at every scheduling boundary on the way. Nothing is scheduled
// while body runs, unless it charges the process (warm.chargeOnly), so
// every pass it makes sees the same state. It reports failures with Errorf alone, so it may run off the test's
// goroutine.
func onWarmMachine(tb testing.TB, port int, body func(w *warm)) {
	tb.Helper()
	s := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 64, VMPages: 16}
	s.Kernel.MaxRunTime = 60 * sim.Second
	for i, name := range []string{"rza", "rzb"} {
		p := disk.RZ58(256, machine.BlockSize)
		p.Name = name
		s.Disks = append(s.Disks, machine.DiskSpec{Mount: "/d" + string(rune('0'+i)), Params: p, Inodes: 64})
	}
	m := machine.New(s)
	tchk := trace.NewChecker()
	m.K.StartTrace(tchk)
	w := &warm{m: m, tchk: tchk}
	m.K.SetProbe(func() {
		if err := m.CheckInvariants(); err != nil {
			m.K.Abort(err)
			return
		}
		if fn := w.atChargeOnly; fn != nil && m.K.ChargeOnly() {
			w.atChargeOnly = nil
			fn()
		}
	})
	fail := func(what string, err error) bool {
		if err != nil {
			tb.Errorf("%s: %v", what, err)
		}
		return err != nil
	}
	net := socket.NewNet(m.K, socket.Loopback())
	srv, err := stream.NewTransport(m.K, net, port)
	if fail("listen transport", err) {
		return
	}
	cli, err := stream.NewTransport(m.K, net, port+1)
	if fail("client transport", err) {
		return
	}

	// The server closes its first connection at once and sits on the second.
	var release byte
	m.K.Spawn("server", func(p *kernel.Proc) {
		_ = srv.Listen(p)
		for i := 0; i < 2; i++ {
			fd, _, err := srv.Accept(p)
			if fail("accept", err) {
				return
			}
			if i == 1 {
				_ = p.Sleep(&release, kernel.PWAIT)
			}
			_ = p.Close(fd)
		}
	})
	m.K.Spawn("main", func(p *kernel.Proc) {
		w.p = p
		defer m.K.Wakeup(&release)
		if fail("boot", m.Boot(p)) || fail("makefile", workload.MakeFile(p, "/d0/src", 48*machine.BlockSize, 1)) {
			return
		}
		fd, _, err := cli.Connect(p, port)
		if fail("connect", err) || fail("close", p.Close(fd)) {
			return
		}
		live, _, err := cli.Connect(p, port)
		if fail("second connect", err) {
			return
		}
		if _, err := p.Write(live, make([]byte, 3000)); fail("write", err) {
			return
		}
		p.SleepFor(50 * sim.Millisecond) // the data lands unread in the server's buffer

		src, err := p.Open("/d0/src", kernel.ORdWr)
		if fail("open", err) {
			return
		}
		var addrs [2]int64
		for i, flags := range []int{kernel.MapShared, kernel.MapPrivate} {
			addrs[i], err = p.Mmap(src, 0, 4*machine.BlockSize, kernel.ProtRead|kernel.ProtWrite, flags)
			if err == nil {
				err = p.MemWrite(addrs[i]+int64(i)*machine.BlockSize, []byte{7})
			}
			if fail("mmap", err) {
				return
			}
		}
		dst, err := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
		if fail("create", err) {
			return
		}
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		_, h, err := splice.SpliceOpts(p, src, dst, splice.EOF, splice.Options{})
		if fail("splice", err) {
			return
		}

		switch {
		case h.Done():
			tb.Error("rig: the splice is not in flight")
		case srv.Ghosts() == 0 || cli.Ghosts() == 0:
			tb.Error("rig: the first connection left no ghosts")
		case srv.CheckDrained() == nil:
			tb.Error("rig: no live connection holds unread data")
		case m.Pool.Resident() < 3:
			tb.Errorf("rig: %d resident pages, want object and shadow pages", m.Pool.Resident())
		default:
			body(w)
		}

		fail("splice wait", h.Wait(p))
		for _, addr := range addrs {
			fail("munmap", p.Munmap(addr))
		}
		for _, fd := range []int{src, dst, live} {
			fail("close", p.Close(fd))
		}
	})
	fail("run", m.K.Run())
}

// check is one catalog pass, and a probe the passes one boundary makes.
type (
	check struct {
		name string
		pass func() error
	}
	probe struct {
		name       string
		chargeOnly bool // the passes run at a charge-only boundary
		checks     []check
	}
)

// probes are the two probes simcheck makes: the full one, and the
// charge-only one at the boundary after a CPU charge or an idle step
// during which nothing but quiet clock ticks ran. Both make the same
// calls; at a charge-only boundary the machine's pass reduces to the
// kernel catalog, with the stream transports it tracks, which read the
// tick count (its splice descriptors return at once).
func probes(w *warm) []probe {
	checks := []check{
		{"machine.CheckInvariants", w.m.CheckInvariants},
		{"trace.Checker", func() error {
			if err := w.tchk.Err(); err != nil {
				return err
			}
			return w.tchk.CheckMetrics(w.m.K.Tracer().Metrics())
		}},
	}
	return []probe{{"full", false, checks}, {"charge-only", true, checks}}
}

// at runs fn where the probe's passes run: directly for the full probe,
// which is not charge-only, or inside a charge-only probe.
func (pr probe) at(tb testing.TB, w *warm, fn func()) {
	tb.Helper()
	if !pr.chargeOnly {
		fn()
		return
	}
	w.chargeOnly(tb, func() {
		if !w.m.K.ChargeOnly() {
			tb.Error("rig: the charge-only probe's passes run outside a charge-only boundary")
		}
		fn()
	})
}

// TestChecksAllocateNothing is the guard for the rule in
// docs/CHECKING.md ("What a probe costs"): a check that runs at every
// scheduling boundary may not allocate on the passing path. Every layer
// the machine owns, the splice descriptors and stream transports its
// kernel tracks, and the trace checks are held to zero allocations per
// pass, in both probes, on a machine with all of them busy.
func TestChecksAllocateNothing(t *testing.T) {
	ran := false
	onWarmMachine(t, 80, func(w *warm) {
		ran = true
		for _, pr := range probes(w) {
			pr.at(t, w, func() {
				for _, c := range pr.checks {
					if err := c.pass(); err != nil {
						t.Errorf("%s probe: %s on the warm machine: %v", pr.name, c.name, err)
						continue
					}
					if n := testing.AllocsPerRun(50, func() { _ = c.pass() }); n != 0 {
						t.Errorf("%s probe: %s allocates %v times per passing pass, want 0", pr.name, c.name, n)
					}
				}
			})
		}
	})
	if !ran && !t.Failed() {
		t.Fatal("the warm machine never reached the checks")
	}
}

// BenchmarkCheckInvariants times each probe's worth of checks on the
// warm machine: full/ is what simcheck pays at most scheduling
// boundaries, charge-only/ what it pays, inside a charge-only probe,
// after a CPU charge or an idle step that only quiet ticks interrupted
// (the benchmark's simcheck.probe.invariants_us measures kernel, cache
// and stream passes on its own rig).
func BenchmarkCheckInvariants(b *testing.B) {
	onWarmMachine(b, 80, func(w *warm) {
		for _, pr := range probes(w) {
			pr.at(b, w, func() {
				b.Run(pr.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, c := range pr.checks {
							if err := c.pass(); err != nil {
								b.Error(err)
								return
							}
						}
					}
				})
			})
		}
	})
}

// TestMachinesShareNoCheckerState: every checked object is found through
// its machine's kernel, so machines in one process share no checker
// state. Two warm machines run from two goroutines at once, each probing
// its own invariants at every scheduling boundary. While A sits with its
// splice in flight and unread data on its connection, B runs to idle:
// B's checks must come back clean, and each drain check mid-flight must
// name its own machine's connection.
func TestMachinesShareNoCheckerState(t *testing.T) {
	aWarm, bDone := make(chan struct{}), make(chan struct{})
	var aLeak, bLeak, bIdle, bInv error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reached := false
		defer func() {
			if !reached {
				close(aWarm)
			}
		}()
		onWarmMachine(t, 80, func(w *warm) {
			reached = true
			close(aWarm)
			<-bDone
			aLeak = w.m.CheckDrained()
		})
	}()
	go func() {
		defer wg.Done()
		defer close(bDone)
		var b *machine.Machine
		onWarmMachine(t, 90, func(w *warm) {
			<-aWarm
			b, bLeak = w.m, w.m.CheckDrained()
		})
		if b != nil {
			bIdle, bInv = b.CheckDrained(), b.CheckInvariants()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, c := range []struct {
		name, prefix string
		err          error
	}{{"A", "80->81#", aLeak}, {"B", "90->91#", bLeak}} {
		var ie *kernel.InvariantError
		if !errors.As(c.err, &ie) || ie.Name != "stream-conn-leak" || !strings.HasPrefix(ie.Detail, c.prefix) {
			t.Errorf("%s's drain check mid-flight = %v, want stream-conn-leak on its own connection %s…", c.name, c.err, c.prefix)
		}
	}
	if bIdle != nil || bInv != nil {
		t.Errorf("B at idle, A's splice and unread data live: CheckDrained = %v, CheckInvariants = %v; want both nil", bIdle, bInv)
	}
}
