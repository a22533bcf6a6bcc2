package simcheck

import (
	"errors"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/stream"
	"kdp/internal/trace"
)

// TestSeedSweep is the in-tree fuzz budget: a deterministic table of
// seeds run on every `go test`. Each seed drives the default mixed
// workload with invariant checking at every scheduling boundary and a
// full oracle/fsck sweep at the end. A failure here is a real bug; the
// error text contains the exact seed to reproduce with
// `go run ./cmd/kdpcheck -seed N -v`.
func TestSeedSweep(t *testing.T) {
	n := uint64(40)
	if testing.Short() {
		n = 10
	}
	for seed := uint64(0); seed < n; seed++ {
		res := Run(Config{Seed: seed})
		if res.Failed() {
			t.Errorf("seed %d: %v\nrepro: %s", seed, res.Violation,
				ReproCommand(Config{Seed: seed, Ops: 60, Workers: res.Workers}))
		}
	}
}

// TestSeedSweepLargerWorkloads runs a few seeds with more ops and a
// fixed worker count, reaching deeper interleavings than the default.
func TestSeedSweepLargerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := uint64(100); seed < 106; seed++ {
		res := Run(Config{Seed: seed, Ops: 150, Workers: 3})
		if res.Failed() {
			t.Errorf("seed %d (ops=150 workers=3): %v", seed, res.Violation)
		}
	}
}

// TestReadOnlyUnmapTakesTheLatch: seed 77 at 200 ops and three workers
// maps a file on d0 read-only just after a fault op's failed delayed
// write on d0, and the unmap, like close, reports that latched error.
// It belongs to the earlier write, so the fetch must not fail on it.
func TestReadOnlyUnmapTakesTheLatch(t *testing.T) {
	if res := Run(Config{Seed: 77, Ops: 200, Workers: 3}); res.Failed() {
		t.Errorf("seed 77 (ops=200 workers=3): %v", res.Violation)
	}
}

// TestFailedCreateLeavesNoEntry is seed 59's minimised run (`kdpcheck
// -seed 59 -ops 60 -workers 1 -fault-site disk.rz58.wrerr -fault-k 17
// -minimize`). Op 35's create appends an entry to /d0's root and the
// armed error fails the write of the grown root inode. create freed the
// new inode, but the root's in-core size still covered the entry, so op
// 41 opened the freed inode and every close after it counted it free
// again, until fs-super-counts saw 65 free inodes in a table of 64.
func TestFailedCreateLeavesNoEntry(t *testing.T) {
	cfg := Config{Seed: 59, Ops: 60, FaultSite: "disk.rz58.wrerr", FaultK: 17}.normalize()
	full := generate(cfg)
	var ops []*op
	for _, i := range []int{13, 15, 29, 33, 35, 39, 41, 46, 50, 52} {
		ops = append(ops, full[i])
	}
	res := execute(cfg, ops)
	if res.Failed() {
		t.Fatalf("seed 59, minimised: %v", res.Violation)
	}
	if res.FaultFired != 1 || !slices.ContainsFunc(res.Log, func(l string) bool {
		return strings.HasPrefix(l, "op 35 ") && strings.Contains(l, "open: I/O error")
	}) {
		t.Errorf("the fault no longer fails op 35's create (fired %d): the run tests nothing", res.FaultFired)
	}
}

// TestReplayIsDeterministic asserts the determinism contract: the same
// seed run twice yields bit-identical event logs and CPU accounting.
func TestReplayIsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := Config{Seed: seed}
		if err := Replay(cfg, Run(cfg)); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestReplayAcrossGOMAXPROCS asserts that Go-runtime parallelism cannot
// leak into the simulation: digests match between GOMAXPROCS=1 and
// GOMAXPROCS=8. The simulation runs on one goroutine, so any divergence
// here means nondeterminism entered through a side channel (map
// iteration, shared globals, real time).
func TestReplayAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	digests := [2]uint64{}
	for i, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		res := Run(Config{Seed: 7})
		if res.Failed() {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, res.Violation)
		}
		digests[i] = res.Digest
	}
	if digests[0] != digests[1] {
		t.Errorf("seed 7 digest differs across GOMAXPROCS: %016x (1) != %016x (8)", digests[0], digests[1])
	}
}

// TestDamageTripsInvariants is the checker's own test harness: each
// supported corruption of buffer-cache state must be caught by the
// invariant sweep, and the diagnostic must name the violated invariant
// and carry the seed.
func TestDamageTripsInvariants(t *testing.T) {
	cases := []struct {
		damage string
		// invariants that may legitimately fire first for this damage
		invariants []string
	}{
		{"busy-on-freelist", []string{"buf-free-busy", "buf-pool-account"}},
		{"delwri-undone", []string{"buf-flag-delwri"}},
		{"hash-key", []string{"buf-hash-key", "buf-pool-account"}},
	}
	for _, tc := range cases {
		t.Run(tc.damage, func(t *testing.T) {
			res := Run(Config{Seed: 3, Damage: tc.damage, DamageAfter: 5})
			if !res.Failed() {
				t.Fatalf("damage %q went undetected", tc.damage)
			}
			msg := res.Violation.Error()
			if !slices.Contains(tc.invariants, kernel.ViolationName(res.Violation)) {
				t.Errorf("damage %q: diagnostic does not name one of %v: %s", tc.damage, tc.invariants, msg)
			}
			if !strings.Contains(msg, "seed 3") {
				t.Errorf("damage %q: diagnostic does not carry the seed: %s", tc.damage, msg)
			}
		})
	}
}

// TestDamageReportsPinned holds every planted cache damage, on seeds 1–4,
// to the violation name, op and virtual time the harness reported before
// any probe skipped a catalog: the values below were printed by
// Run(Config{Seed: s, Damage: kind, DamageAfter: 5}) on the tree without
// skips. The damage is planted between ops, bumps the cache's generation
// as any write to what its catalog reads does, and is checked at once,
// so a difference means the pass lost a check or the run before the
// damage changed.
func TestDamageReportsPinned(t *testing.T) {
	at := map[uint64]struct{ op, t string }{
		1: {"op 4", "0.248445s"},
		2: {"op 19", "0.029217s"},
		3: {"op 4", "0.630848s"},
		4: {"op 15", "0.280843s"},
	}
	names := map[string][4]string{
		"busy-on-freelist": {"buf-free-busy", "buf-free-busy", "buf-free-busy", "buf-free-busy"},
		"delwri-undone":    {"buf-flag-delwri", "buf-flag-delwri", "buf-flag-delwri", "buf-flag-delwri"},
		"hash-key":         {"buf-hash-key", "buf-hash-key", "buf-hash-key", "buf-hash-key"},
		"ra-pending":       {"buf-ra-pending", "buf-ra-pending", "buf-ra-pending", "buf-ra-pending"},
		"two-stage":        {"buf-flag-delwri", "buf-ra-pending", "buf-ra-pending", "buf-flag-delwri"},
	}
	where := regexp.MustCompile(`\(during (op \d+) .*, t=(\S+)\)$`)
	for _, kind := range buf.DamageKinds() {
		want, ok := names[kind]
		if !ok {
			t.Errorf("damage %q has no pinned reports", kind)
			continue
		}
		for seed := uint64(1); seed <= 4; seed++ {
			res := Run(Config{Seed: seed, Damage: kind, DamageAfter: 5})
			if !res.Failed() {
				t.Errorf("damage %q, seed %d went undetected", kind, seed)
				continue
			}
			m := where.FindStringSubmatch(res.Violation.Error())
			if name := kernel.ViolationName(res.Violation); name != want[seed-1] || m == nil ||
				m[1] != at[seed].op || m[2] != at[seed].t {
				t.Errorf("damage %q, seed %d: %v; want %s during %s at t=%s",
					kind, seed, res.Violation, want[seed-1], at[seed].op, at[seed].t)
			}
		}
	}
}

// TestGhostBoundTripsAtItsTick: stream-ghost-bound reads the tick count,
// which moves while no transport's generation does, so an unmoved
// transport walks once the tick passes its earliest ghost expiry plus
// one (Transport.CheckInvariants). Two connections' ghosts have their
// expiry callouts disarmed on an otherwise idle machine; the violation
// must come at the first tick past expires+1 and at the virtual time the
// harness reported when every idle step took a full pass.
func TestGhostBoundTripsAtItsTick(t *testing.T) {
	m := &machine{cfg: Config{Seed: 1}, Machine: checkMachine(1), oracle: make(map[string]*ofile)}
	defer m.Release()
	m.tchk, m.tdig = trace.NewChecker(), trace.NewDigester()
	m.tr = m.K.StartTrace(trace.Tee(m.tchk, m.tdig))
	m.K.SetProbe(m.probe)
	net := socket.NewNet(m.K, socket.Loopback())
	srv, err := stream.NewTransport(m.K, net, 80)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := stream.NewTransport(m.K, net, 5001)
	if err != nil {
		t.Fatal(err)
	}
	m.K.Spawn("server", func(p *kernel.Proc) {
		if err := srv.Listen(p); err != nil {
			t.Error(err)
		} else if fd, _, err := srv.Accept(p); err != nil {
			t.Error(err)
		} else if err := p.Close(fd); err != nil {
			t.Error(err)
		}
	})
	m.K.Spawn("client", func(p *kernel.Proc) {
		fd, _, err := cli.Connect(p, srv.Port())
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Close(fd); err != nil {
			t.Error(err)
		}
		p.SleepFor(100 * sim.Millisecond) // both sides retire
		if srv.Ghosts() != 1 || cli.Ghosts() != 1 {
			t.Errorf("ghosts: server %d, client %d; want one each", srv.Ghosts(), cli.Ghosts())
		}
		srv.DisarmGhostReaps()
		cli.DisarmGhostReaps()
		p.SleepFor(100 * sim.Second) // past the retention window
	})
	_ = m.K.Run() // the violation aborts the run
	if name := kernel.ViolationName(m.violation); name != "stream-ghost-bound" {
		t.Fatalf("violation %v, want stream-ghost-bound", m.violation)
	}
	ticks := regexp.MustCompile(`expired at tick (\d+), still present at tick (\d+) .*, t=(\S+)\)$`).
		FindStringSubmatch(m.violation.Error())
	if ticks == nil {
		t.Fatalf("violation %v: no ticks or time", m.violation)
	}
	expires, _ := strconv.Atoi(ticks[1])
	if now, _ := strconv.Atoi(ticks[2]); now != expires+2 || ticks[3] != "79.020000s" {
		t.Errorf("reported at tick %d, t=%s; want tick %d, t=79.020000s", now, ticks[3], expires+2)
	}
}

// TestMinimizeShrinksFailingSequence checks ddmin against a synthetic
// failure: cache damage injected after a fixed op count fails every
// superset, so the minimizer must shrink the 60-op sequence to the
// minimal prefix that reaches the damage trigger.
func TestMinimizeShrinksFailingSequence(t *testing.T) {
	cfg := Config{Seed: 11, Damage: "busy-on-freelist", DamageAfter: 5}
	res, idx := Minimize(cfg)
	if !res.Failed() {
		t.Fatal("minimized run did not fail")
	}
	if idx == nil {
		t.Fatal("Minimize returned no surviving indices for a failing config")
	}
	if len(idx) > 6 {
		t.Errorf("minimal sequence has %d ops, want <= 6 (damage fires after op 5)", len(idx))
	}
	if got := res.Ops; got != len(idx) {
		t.Errorf("result reports %d ops but %d indices survived", got, len(idx))
	}
}

// TestMinimizePassingSeedReturnsNil documents the passing-seed contract.
func TestMinimizePassingSeedReturnsNil(t *testing.T) {
	res, idx := Minimize(Config{Seed: 1})
	if res.Failed() {
		t.Fatalf("seed 1 unexpectedly fails: %v", res.Violation)
	}
	if idx != nil {
		t.Errorf("passing seed returned surviving indices %v", idx)
	}
}

// TestReproCommand pins the repro command format printed on failures.
func TestReproCommand(t *testing.T) {
	got := ReproCommand(Config{Seed: 42, Ops: 60, Workers: 2})
	want := "go run ./cmd/kdpcheck -seed 42 -ops 60 -workers 2 -v"
	if got != want {
		t.Errorf("ReproCommand = %q, want %q", got, want)
	}
}

// TestCrashSweep is the in-tree crash budget: every seed boots a
// machine, runs a file-op-heavy single-worker workload, pulls the plug
// at a seed-derived op boundary, repairs, remounts, and checks that
// every pre-crash-fsync'd file survives byte-exact and both volumes end
// fsck-clean. `make crash-ci` runs the wider sweep.
func TestCrashSweep(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 10
	}
	for seed := uint64(0); seed < n; seed++ {
		res := Run(Config{Seed: seed, Crash: true})
		if res.Failed() {
			t.Errorf("crash seed %d: %v\nrepro: %s", seed, res.Violation,
				ReproCommand(Config{Seed: seed, Ops: 60, Workers: 1, Crash: true}))
		}
	}
}

// TestCrashSweepDoesRealWork guards the crash sweep against going
// vacuous: across a window of seeds, power cuts must actually lose
// dirty buffers, repair must actually fix problems, and runs must
// actually verify fsync'd content — otherwise the sweep proves nothing.
func TestCrashSweepDoesRealWork(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lost, repaired, synced := 0, 0, 0
	for seed := uint64(0); seed < 25; seed++ {
		res := Run(Config{Seed: seed, Crash: true})
		if res.Failed() {
			t.Fatalf("crash seed %d: %v", seed, res.Violation)
		}
		for _, line := range res.Log {
			if strings.Contains(line, "power cut") && !strings.Contains(line, "0 dirty buffer(s) lost") {
				lost++
			}
			if strings.Contains(line, "fsck-repair") && !strings.Contains(line, "0 problem(s)") {
				repaired++
			}
			if strings.Contains(line, "verified byte-exact") && !strings.Contains(line, " 0 verified") {
				synced++
			}
		}
	}
	if lost == 0 {
		t.Error("no power cut ever lost a dirty buffer: crashes are not destroying volatile state")
	}
	if repaired == 0 {
		t.Error("no repair ever fixed a problem: the repairing fsck is not being exercised")
	}
	if synced == 0 {
		t.Error("no run ever verified a synced file: the durability oracle is not being exercised")
	}
}

// TestCrashReplay pins crash-sweep determinism: the same crash seed
// must replay to a bit-identical event log and CPU accounting.
func TestCrashReplay(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		cfg := Config{Seed: seed, Crash: true}
		if err := Replay(cfg, Run(cfg)); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestFaultedVolumeStillChecked makes sure fault injection does not
// blind the harness entirely: disk 0 content checks must stay active
// after a fault is armed on disk 1.
func TestFaultedVolumeStillChecked(t *testing.T) {
	m := &machine{faulted: [2]bool{false, true}}
	if !m.checkable(0) {
		t.Error("disk 0 lost content checking after a d1 fault")
	}
	if m.checkable(1) {
		t.Error("disk 1 still content-checked despite injected faults")
	}
}

// TestCheckMachineShape pins what the harness asks the one assembler
// for: the small cache and pool, the two bare-named disks (the
// fault-site IDs depend on the names) and their mount points.
func TestCheckMachineShape(t *testing.T) {
	m := checkMachine(3)
	if m.Cache.NumBuffers() != 64 || m.Pool.Frames() != 8 || len(m.Disks) != 2 {
		t.Fatalf("%d buffers, %d frames, %d disks", m.Cache.NumBuffers(), m.Pool.Frames(), len(m.Disks))
	}
	for i, want := range []struct {
		name   string
		blocks int64
	}{{"rz58", 600}, {"rz56", 220}} {
		d := m.Disks[i]
		if d.DevName() != want.name || d.DevBlocks() != want.blocks {
			t.Errorf("disk %d: %s, %d blocks", i, d.DevName(), d.DevBlocks())
		}
	}
	m.K.Spawn("boot", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		for i, mount := range []string{"/d0", "/d1"} {
			if n := m.FSs[i].Super().NInodes; n != 64 {
				t.Errorf("%s: %d inodes", mount, n)
			}
			if !m.FSs[i].Exists(p.Ctx(), "/") {
				t.Errorf("%s: not mounted", mount)
			}
			if fd, err := p.Open(mount+"/probe", kernel.OCreat|kernel.OWrOnly); err != nil {
				t.Errorf("nothing mounted at %s: %v", mount, err)
			} else {
				p.Close(fd)
			}
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if cfg := m.K.Config(); cfg.Seed != 3 || cfg.Name != "simcheck-3" {
		t.Errorf("kernel config: seed %d, name %q", cfg.Seed, cfg.Name)
	}
}

// TestOracleStaleRule drives the short-splice rule directly: a
// destination mixing the payload, its previous content and zeros
// passes; one foreign byte is an oracle-stale violation.
func TestOracleStaleRule(t *testing.T) {
	m := &machine{cfg: Config{Seed: 1}, Machine: checkMachine(1), oracle: make(map[string]*ofile), bufs: make([][5]*sim.Block, 1)}
	fresh := pattern(make([]byte, 3*blockSize), 0, 5)
	prev := pattern(make([]byte, 2*blockSize+100, 3*blockSize), 0, 9)
	// Block 0 written by the splice, block 1 still the old content,
	// block 2 allocated by the splice and scrubbed.
	content := append(append(append([]byte(nil), fresh[:blockSize]...), prev[blockSize:2*blockSize]...), make([]byte, blockSize)...)
	var freshImg, prevImg image
	freshImg.write(0, fresh)
	prevImg.write(0, prev)
	m.K.Spawn("test", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Errorf("boot: %v", err)
			return
		}
		write := func(data []byte) {
			fd, err := p.Open("/d0/f", kernel.OCreat|kernel.OWrOnly|kernel.OTrunc)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if _, err := p.Write(fd, data); err != nil {
				t.Fatalf("write: %v", err)
			}
			p.Close(fd)
		}
		write(content)
		if !m.checkNoStale(p, 0, "/d0/f", &freshImg, &prevImg) || m.violation != nil {
			t.Errorf("payload/previous/zero mix flagged: %v", m.violation)
		}
		content[2*blockSize+17] = fresh[2*blockSize+17] ^ 0x5A // somebody else's byte
		write(content)
		var ie *kernel.InvariantError
		if m.checkNoStale(p, 0, "/d0/f", &freshImg, &prevImg) || !errors.As(m.violation, &ie) || ie.Name != "oracle-stale" ||
			!strings.HasPrefix(ie.Detail, "/d0/f byte 16401 (block 2)") {
			t.Errorf("foreign byte not reported as oracle-stale: %v", m.violation)
		}
	})
	_ = m.K.Run() // the violation aborts the run
}
