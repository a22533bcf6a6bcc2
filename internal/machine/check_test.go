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
}

// onWarmMachine runs body in process context on a booted machine in the
// middle of everything a probe has to look at: a retired connection
// (ghosts on both transports) and a live one with unread data, a file
// mapped shared and private with resident pages and a copy-on-write
// copy, and an asynchronous file-to-file splice in flight between two
// mechanical disks, with a trace checker fed since boot. The server listens on
// port and the client binds port+1. The machine's invariants are
// checked at every scheduling boundary on the way. Nothing is scheduled
// while body runs, so every pass it makes sees the same state. It reports failures with Errorf alone, so it may run off the test's
// goroutine.
func onWarmMachine(tb testing.TB, port int, body func(w *warm)) {
	tb.Helper()
	s := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 64}
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
		case m.Pool.Resident() < 2 || m.K.Tracer().Metrics().VMCows == 0:
			tb.Errorf("rig: %d resident pages and %d copy-on-write copies, want both", m.Pool.Resident(), m.K.Tracer().Metrics().VMCows)
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
		name    string
		audited bool // the passes run under kernel.SetAudit
		checks  []check
	}
)

// probes are simcheck's probe made two ways. Unchanged state makes
// every catalog skip (kernel.Gen), which is what most probes cost; under
// the audit every catalog walks in full and digests what it read, which
// bounds what a probe after a change to every owner costs.
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
	return []probe{{"audited", true, checks}, {"skip", false, checks}}
}

// at runs fn with the audit set as the probe makes it.
func (pr probe) at(fn func()) {
	kernel.SetAudit(pr.audited)
	defer kernel.SetAudit(false)
	fn()
}

// TestChecksAllocateNothing is the guard for the rule in
// docs/CHECKING.md ("What a probe costs"): a check that runs at every
// scheduling boundary may not allocate on the passing path. Every layer
// the machine owns, the splice descriptors and stream transports its
// kernel tracks, and the trace checks are held to zero allocations per
// pass, walking (under the audit) and skipping, on a machine with all
// of them busy.
func TestChecksAllocateNothing(t *testing.T) {
	ran := false
	onWarmMachine(t, 80, func(w *warm) {
		ran = true
		for _, pr := range probes(w) {
			pr.at(func() {
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
// warm machine: skip/ is a probe at which no owner moved, audited/ one
// at which every catalog walks and digests what it read (each package's
// BenchmarkCatalogWalk times its walk alone; the benchmark's
// simcheck.probe.invariants_us times kernel, cache and stream passes on
// its own rig, unchanged state, so the skip path).
func BenchmarkCheckInvariants(b *testing.B) {
	onWarmMachine(b, 80, func(w *warm) {
		for _, pr := range probes(w) {
			pr.at(func() {
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
