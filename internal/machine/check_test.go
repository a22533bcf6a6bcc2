package machine_test

import (
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

// onWarmMachine runs body in process context on a booted machine in the
// middle of everything a probe has to look at: a retired connection
// (ghosts on both transports) and a live one with unread data, a file
// mapped shared and private with resident and copy-on-write pages, and
// an asynchronous file-to-file splice in flight between two mechanical
// disks, with a trace checker fed since boot. Nothing is scheduled while
// body runs, so every pass it makes sees the same state.
func onWarmMachine(tb testing.TB, body func(m *machine.Machine, tchk *trace.Checker)) {
	tb.Helper()
	splice.EnableInvariants(true)
	stream.EnableInvariants(true)
	defer splice.EnableInvariants(false)
	defer stream.EnableInvariants(false)

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
	net := socket.NewNet(m.K, socket.Loopback())
	srv, err := stream.NewTransport(m.K, net, 80)
	if err != nil {
		tb.Fatal(err)
	}
	cli, err := stream.NewTransport(m.K, net, 5001)
	if err != nil {
		tb.Fatal(err)
	}
	fail := func(what string, err error) bool {
		if err != nil {
			tb.Errorf("%s: %v", what, err)
		}
		return err != nil
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
		defer m.K.Wakeup(&release)
		if fail("boot", m.Boot(p)) || fail("makefile", workload.MakeFile(p, "/d0/src", 48*machine.BlockSize, 1)) {
			return
		}
		fd, _, err := cli.Connect(p, 80)
		if fail("connect", err) || fail("close", p.Close(fd)) {
			return
		}
		live, _, err := cli.Connect(p, 80)
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
		case h.Done() || splice.CheckDrained() == nil:
			tb.Error("rig: the splice is not in flight")
		case srv.Ghosts() == 0 || cli.Ghosts() == 0:
			tb.Error("rig: the first connection left no ghosts")
		case stream.CheckDrained() == nil:
			tb.Error("rig: no live connection holds unread data")
		case m.Pool.Resident() < 3:
			tb.Errorf("rig: %d resident pages, want object and shadow pages", m.Pool.Resident())
		default:
			body(m, tchk)
		}

		fail("splice wait", h.Wait(p))
		for _, addr := range addrs {
			fail("munmap", p.Munmap(addr))
		}
		for _, fd := range []int{src, dst, live} {
			fail("close", p.Close(fd))
		}
	})
	if err := m.K.Run(); err != nil {
		tb.Fatalf("run: %v", err)
	}
}

// check is one catalog pass, and a probe the passes one boundary makes.
type (
	check struct {
		name string
		pass func() error
	}
	probe struct {
		name   string
		checks []check
	}
)

// probes are the two probes simcheck makes: the full one, and the
// charge-only one at the boundary after a CPU charge or an idle step
// during which nothing but quiet clock ticks ran (the kernel catalog, the
// trace checks and stream, which reads the tick count).
func probes(m *machine.Machine, tchk *trace.Checker) []probe {
	traced := check{"trace.Checker", func() error {
		if err := tchk.Err(); err != nil {
			return err
		}
		return tchk.CheckMetrics(m.K.Tracer().Metrics())
	}}
	return []probe{
		{"full", []check{
			{"machine.CheckInvariants", m.CheckInvariants},
			{"stream.CheckInvariants", stream.CheckInvariants},
			{"splice.CheckInvariants", splice.CheckInvariants},
			traced,
		}},
		{"charge-only", []check{
			{"kernel.CheckInvariants", m.K.CheckInvariants},
			traced,
			{"stream.CheckInvariants", stream.CheckInvariants},
		}},
	}
}

// TestChecksAllocateNothing is the guard for the rule in
// docs/CHECKING.md ("What a probe costs"): a check that runs at every
// scheduling boundary may not allocate on the passing path. Every layer
// the machine owns, the stream and splice registries and the trace
// checks are held to zero allocations per pass, in both probes, on a
// machine with all of them busy.
func TestChecksAllocateNothing(t *testing.T) {
	ran := false
	onWarmMachine(t, func(m *machine.Machine, tchk *trace.Checker) {
		ran = true
		for _, pr := range probes(m, tchk) {
			for _, c := range pr.checks {
				if err := c.pass(); err != nil {
					t.Errorf("%s probe: %s on the warm machine: %v", pr.name, c.name, err)
					continue
				}
				if n := testing.AllocsPerRun(50, func() { _ = c.pass() }); n != 0 {
					t.Errorf("%s probe: %s allocates %v times per passing pass, want 0", pr.name, c.name, n)
				}
			}
		}
	})
	if !ran && !t.Failed() {
		t.Fatal("the warm machine never reached the checks")
	}
}

// BenchmarkCheckInvariants times each probe's worth of checks on the
// warm machine: full/ is what simcheck pays at most scheduling
// boundaries, charge-only/ what it pays after a CPU charge or an idle
// step that only quiet ticks interrupted (the benchmark's
// simcheck.probe.invariants_us measures kernel, cache and stream passes
// on its own rig).
func BenchmarkCheckInvariants(b *testing.B) {
	onWarmMachine(b, func(m *machine.Machine, tchk *trace.Checker) {
		for _, pr := range probes(m, tchk) {
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
		}
	})
}
