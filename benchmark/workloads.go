package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"kdp/internal/bench"
	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/server"
	"kdp/internal/sim"
	"kdp/internal/simcheck"
	"kdp/internal/socket"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// A workload is one set of inputs the benchmark runs. iterate performs
// one iteration against the recorder; extras, when set, measures the
// data paths and engines that only the traced pass reports and returns
// them by per-layer metric name.
type workloadDef struct {
	name    string
	why     string
	iterate func(it *iter)
	extras  func(seed uint64) map[string]float64
}

var workloads = []*workloadDef{
	{
		name:    "tables_ram",
		why:     "paper Tables 1+2 on RAM disks: the device is free, so trap, copy, switch, getblk and splice-handler charges do the work",
		iterate: func(it *iter) { tablesIter(it, bench.RAM) },
	},
	{
		name:    "tables_rz58",
		why:     "the same five runs on RZ58 disks: seek, rotation, elevator, readahead and the flusher set throughput while the CPU idles",
		iterate: func(it *iter) { tablesIter(it, bench.RZ58) },
		extras:  aggregatedExtras,
	},
	{
		name:    "serve_net",
		why:     "warm-cache file server, 8 closed-loop clients over 10 Mb Ethernet: socket, stream, poll and retransmit callouts, no disk",
		iterate: serveIter,
		extras:  eventLoopExtras,
	},
	{
		name:    "check_mix",
		why:     "simcheck over 12 seeds (8 standard, 4 crash; 10 corpus, 2 from -seed): random writes, metadata, eviction, ENOSPC, recovery; what developers wait for",
		iterate: checkIter,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scale shrinks the workloads for the self-test: 1 is the benchmark's
// size, larger values divide the request and seed counts.
var scale = 1

// ---- tables_ram, tables_rz58 ----

const (
	srcPath = "/src/bigfile"
	dstPath = "/dst/copy"
)

// tableBytes is the copied file's size: the paper's 8 MB plus zero to
// three extra blocks drawn from the seed, so that different seeds copy
// different files. Seed 1 draws zero and is exactly kdpbench's set-up.
func tableBytes(seed uint64) int64 {
	return 8<<20 + int64((seed-1)%4)*bench.BlockSize
}

// patternSeed is the MakeFile pattern byte for a seed.
func patternSeed(seed uint64) byte { return byte(seed*0x9E3779B97F4A7C15>>56) | 1 }

// pattern fills b with the bytes workload.MakeFile writes at offset off.
func pattern(b []byte, off int64, seed byte) {
	for i := range b {
		v := off + int64(i)
		b[i] = byte(v>>8) ^ byte(v)*5 ^ seed
	}
}

// paperCells are the source paper's legible table cells. The RZ58
// Table 2 cells are garbled in the source and carry no error figure.
var paperCells = map[bench.DiskKind][]paperCell{
	bench.RAM:  {{"kbs_cp", 1884}, {"kbs_scp", 3343}, {"f_cp", 2.00}, {"f_scp", 1.25}},
	bench.RZ58: {{"f_cp", 1.67}, {"f_scp", 1.25}},
}

type paperCell struct {
	name string
	want float64
}

func tablesIter(it *iter, dk bench.DiskKind) {
	s := bench.DefaultSetup(dk)
	s.Seed = it.seed
	s.FileBytes = tableBytes(it.seed)
	pat := patternSeed(it.seed)

	idle := idleBaseline(it, s)
	cell := map[string]float64{} // this iteration's version of the paper's cells
	for _, mode := range []workload.CopyMode{workload.CopyReadWrite, workload.CopySplice, workload.CopyMmap} {
		res, busy := copyRun(it, s, mode, pat)
		cell["kbs_"+mode.String()] = res.ThroughputKBs()
		it.vals["result.sim_kbs_"+mode.String()] = res.ThroughputKBs()
		if mode != workload.CopyMmap {
			mb := float64(res.Bytes) / (1 << 20)
			it.vals["result.sim_cpu_ms_per_mb_"+mode.String()] = busy.Milliseconds() / mb
		}
	}
	for _, mode := range []workload.CopyMode{workload.CopyReadWrite, workload.CopySplice} {
		elapsed := availRun(it, s, mode, pat)
		cell["f_"+mode.String()] = float64(elapsed) / float64(idle)
		it.vals["result.sim_avail_pct_"+mode.String()] = 100 * float64(idle) / float64(elapsed)
	}
	var sum float64
	for _, c := range paperCells[dk] {
		sum += math.Abs(cell[c.name]-c.want) / c.want
	}
	it.vals["result.sim_paper_err_pct"] = 100 * sum / float64(len(paperCells[dk]))
}

// newTableMachine builds one of the paper's machines through
// bench.NewMachine, traced when the iteration is.
func newTableMachine(it *iter, s bench.Setup, label, role string) (*mach, *bench.Machine) {
	m, sink := it.machine(label, role)
	var bm *bench.Machine
	it.phase("build", func() {
		s.Label = label
		if sink != nil {
			bench.TraceSinkFactory = func(string) trace.Sink { return sink }
			defer func() { bench.TraceSinkFactory = nil }()
		}
		bm = bench.NewMachine(s)
	})
	m.k, m.cache, m.ndisks = bm.K, bm.Cache, len(bm.Disks)
	return m, bm
}

// runMachine drives a machine to quiescence inside a "machine:<label>"
// span. Its self time — what the phases inside it do not cover: process
// hand-offs between phases and the drain after the last one — is
// reported as the drain phase.
func runMachine(it *iter, m *mach) {
	it.phase("machine:"+m.label, func() {
		if err := m.k.Run(); err != nil {
			panic("benchmark: " + m.label + ": " + err.Error())
		}
	})
	it.retire(m)
}

// idleBaseline is Table 1's denominator: the test program alone. It is
// set-up, not a timed region: the host cost is clock ticks only.
func idleBaseline(it *iter, s bench.Setup) sim.Duration {
	m, bm := newTableMachine(it, s, "idle/"+s.Disk.String(), "")
	var res workload.TestProgramResult
	bm.K.Spawn("test", func(p *kernel.Proc) {
		it.phase("populate", func() {
			must(bm.Boot(p))
			res = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
		})
	})
	runMachine(it, m)
	return res.Elapsed
}

// copyRun is one Table 2 cell: a cold-cache copy on an idle machine,
// then a read-back of the destination through Proc.Read.
func copyRun(it *iter, s bench.Setup, mode workload.CopyMode, pat byte) (res workload.CopyResult, busy sim.Duration) {
	role := ""
	if mode != workload.CopyMmap {
		role = mode.String()
	}
	m, bm := newTableMachine(it, s, fmt.Sprintf("thrput/%s/%s", mode, s.Disk), role)
	bm.K.Spawn("copier", func(p *kernel.Proc) {
		it.phase("populate", func() {
			must(bm.Boot(p))
			must(workload.MakeFile(p, srcPath, s.FileBytes, pat))
		})
		it.phase("coldstart", func() {
			must(workload.ColdStart(p, bm.Cache, bm.Devices()...))
		})
		w := it.openWindow("move_"+mode.String(), m, nil)
		var err error
		res, err = workload.Copy(p, workload.DefaultCopySpec(srcPath, dstPath, mode))
		_, busy = w.close()
		it.attempted++
		if err != nil {
			it.fail("%s copy: %v", mode, err)
			return
		}
		it.phase("verify", func() {
			if err := verifyFile(p, dstPath, s.FileBytes, pat); err != nil {
				it.fail("%s copy: %v", mode, err)
			}
		})
	})
	runMachine(it, m)
	return res, busy
}

// verifyFile reads path back and compares it with the MakeFile pattern.
func verifyFile(p *kernel.Proc, path string, size int64, pat byte) error {
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		return err
	}
	got := make([]byte, bench.BlockSize)
	want := make([]byte, bench.BlockSize)
	var off int64
	for {
		n, err := p.Read(fd, got)
		if err != nil {
			_ = p.Close(fd)
			return err
		}
		if n == 0 {
			break
		}
		pattern(want[:n], off, pat)
		if !bytes.Equal(got[:n], want[:n]) {
			_ = p.Close(fd)
			return fmt.Errorf("destination differs from source in [%d,%d)", off, off+int64(n))
		}
		off += int64(n)
	}
	if off != size {
		_ = p.Close(fd)
		return fmt.Errorf("destination holds %d bytes, want %d", off, size)
	}
	return p.Close(fd)
}

// availRun is one Table 1 environment: the test program against a
// looping copy. The timed region is the test program's window.
func availRun(it *iter, s bench.Setup, mode workload.CopyMode, pat byte) sim.Duration {
	m, bm := newTableMachine(it, s, fmt.Sprintf("avail/%s/%s", mode, s.Disk), "")
	stop, ready := false, false
	var test workload.TestProgramResult
	bm.K.Spawn("copier", func(p *kernel.Proc) {
		it.phase("populate", func() {
			must(bm.Boot(p))
			must(workload.MakeFile(p, srcPath, s.FileBytes, pat))
		})
		ready = true
		bm.K.Wakeup(&ready)
		spec := workload.DefaultCopySpec(srcPath, dstPath, mode)
		rounds, n, err := workload.LoopCopy(p, spec, bm.Cache, bm.Devices(), &stop)
		it.attempted++
		switch {
		case err != nil:
			it.fail("%s loop copy: %v", mode, err)
		case rounds == 0 || n != int64(rounds)*s.FileBytes:
			it.fail("%s loop copy moved %d bytes in %d rounds of %d", mode, n, rounds, s.FileBytes)
		}
	})
	bm.K.Spawn("test", func(p *kernel.Proc) {
		for !ready {
			_ = p.Sleep(&ready, kernel.PWAIT)
		}
		w := it.openWindow("avail_"+mode.String(), m, p)
		test = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
		w.close()
		stop = true
	})
	runMachine(it, m)
	return test.Elapsed
}

// aggregatedExtras measures the vectored and batched copies on RZ58:
// the guard against a change aimed at cp that breaks kernel uio/batch.
func aggregatedExtras(seed uint64) map[string]float64 {
	s := bench.DefaultSetup(bench.RZ58)
	s.Seed = seed
	s.FileBytes = tableBytes(seed)
	it := newIter("tables_rz58", 0, seed, true)
	out := map[string]float64{}
	for _, mode := range []workload.CopyMode{workload.CopyVectored, workload.CopyBatched} {
		res, _ := copyRun(it, s, mode, patternSeed(seed))
		out["workload.sim_kbs_"+mode.String()] = res.ThroughputKBs()
	}
	out["workload.crossings_saved"] = float64(it.fold.agg.Metrics().BatchCrossingsSaved)
	if it.failed > 0 {
		panic("benchmark: aggregated copy failed: " + it.notes[0])
	}
	return out
}

// ---- serve_net ----

const (
	servePort      = 80
	serveFile      = "/srv/file"
	serveFileBytes = 128 << 10
	serveClients   = 8
	serveRequests  = 30 // per client: 240 latency samples per mode
	thinkMin       = 200 * sim.Millisecond
	thinkSpan      = 400 * sim.Millisecond
	serveTestCost  = 10 * sim.Millisecond
	// serveTestOps sizes the CPU-bound test program so that its window
	// spans the whole serving period in every mode.
	serveTestOps = 2400
)

type serveResult struct {
	kbs, availPct float64
	p50, p95      sim.Duration
	n             int
}

func serveIter(it *iter) {
	for _, mode := range []server.Mode{server.ModeCopy, server.ModeSplice} {
		r := serveRun(it, server.EngineProcs, mode)
		name := mode.String()
		it.vals["result.sim_kbs_"+name] = r.kbs
		it.vals["result.sim_avail_pct_"+name] = r.availPct
		it.vals["result.sim_req_p50_ms_"+name] = r.p50.Milliseconds()
		it.vals["result.sim_req_p95_ms_"+name] = r.p95.Milliseconds()
		it.vals["result.sim_req_n"] = float64(r.n)
	}
}

// eventLoopExtras measures the single-process event-loop engine, which
// only the traced pass reports.
func eventLoopExtras(seed uint64) map[string]float64 {
	it := newIter("serve_net", 0, seed, true)
	out := map[string]float64{}
	for _, mode := range []server.Mode{server.ModeCopy, server.ModeSplice} {
		r := serveRun(it, server.EngineEvent, mode)
		name := server.ModeName(server.EngineEvent, mode)
		out["server.sim_kbs_"+name] = r.kbs
		out["server.sim_p95_ms_"+name] = r.p95.Milliseconds()
	}
	mt := it.fold.agg.Metrics()
	out["server.poll_scanned_per_ready"] = ratio(float64(mt.PollScannedFds), float64(mt.PollReadyFds))
	if it.failed > 0 {
		panic("benchmark: event-loop server failed: " + it.notes[0])
	}
	return out
}

// serveRun is one server machine: a warm-cache file, serveClients
// closed-loop clients that each wait for a reply before thinking and
// asking again, and the CPU-bound test program alongside. The timed
// region runs from the first request to the last reply.
func serveRun(it *iter, engine server.Engine, mode server.Mode) serveResult {
	clients, requests := serveClients, serveRequests/scale
	name := server.ModeName(engine, mode)
	role := ""
	if engine == server.EngineProcs {
		role = name
	}
	m, sink := it.machine("serve/"+name, role)

	var (
		k     *kernel.Kernel
		cache *buf.Cache
		d     *disk.Disk
		st    *stream.Transport
		cts   []*stream.Transport
	)
	it.phase("build", func() {
		cfg := kernel.DefaultConfig()
		cfg.Seed = it.seed
		cfg.MaxRunTime = 3600 * sim.Second
		k = kernel.New(cfg)
		if sink != nil {
			k.StartTrace(sink)
		}
		cache = buf.NewCache(k, 400, bench.BlockSize)
		d = disk.New(k, disk.RAMDisk(2048, bench.BlockSize))
		d.SetCache(cache)
		_, err := fs.Mkfs(d, 64)
		must(err)
		net := socket.NewNet(k, socket.Ethernet10())
		st, err = stream.NewTransport(k, net, servePort)
		must(err)
		cts = make([]*stream.Transport, clients)
		for i := range cts {
			cts[i], err = stream.NewTransport(k, net, 5001+i)
			must(err)
		}
	})
	m.k, m.cache, m.ndisks = k, cache, 1

	// The served file and every client's think times come from the seed.
	payload := make([]byte, serveFileBytes)
	pattern(payload, 0, patternSeed(it.seed))
	rng := sim.NewRand(it.seed ^ 0x5E47E)
	think := make([][]sim.Duration, clients)
	for i := range think {
		think[i] = make([]sim.Duration, requests)
		for r := range think[i] {
			think[i][r] = thinkMin + rng.Duration(thinkSpan)
		}
	}

	ready := false
	var (
		win       *window
		test      *kernel.Proc
		srv       *server.Server
		replies   int
		delivered int64
		latencies []sim.Duration
		elapsed   sim.Duration
	)
	total := clients * requests
	// replied counts a finished request; the last one ends the window.
	replied := func() {
		if replies++; replies == total {
			win.close()
		}
	}

	k.Spawn("boot", func(p *kernel.Proc) {
		it.phase("populate", func() {
			f, err := fs.Mount(p.Ctx(), cache, d)
			must(err)
			k.Mount("/srv", f)
			fd, err := p.Open(serveFile, kernel.OCreat|kernel.ORdWr)
			must(err)
			for off := 0; off < serveFileBytes; off += bench.BlockSize {
				_, err := p.Write(fd, payload[off:off+bench.BlockSize])
				must(err)
			}
			must(p.Close(fd))
			// One full read leaves every block resident, so the network
			// is the only device in the serving path.
			rfd, err := p.Open(serveFile, kernel.ORdOnly)
			must(err)
			block := make([]byte, bench.BlockSize)
			for {
				n, err := p.Read(rfd, block)
				must(err)
				if n == 0 {
					break
				}
			}
			must(p.Close(rfd))
			srv = server.Start(k, server.Config{
				Name: "fsrv", Transport: st, Path: serveFile, FileBytes: serveFileBytes,
				Mode: mode, Engine: engine, Conns: clients,
			})
		})
		ready = true
		k.Wakeup(&ready)
	})

	for i := 0; i < clients; i++ {
		i := i
		k.Spawn(fmt.Sprintf("client-%d", i), func(p *kernel.Proc) {
			for !ready {
				_ = p.Sleep(&ready, kernel.PWAIT)
			}
			if win == nil {
				win = it.openWindow("move_"+mode.String(), m, test)
			}
			fd, _, err := cts[i].Connect(p, servePort)
			if err != nil {
				for r := 0; r < requests; r++ {
					it.attempted++
					it.fail("client %d connect: %v", i, err)
					replied()
				}
				return
			}
			got := make([]byte, serveFileBytes)
			for r := 0; r < requests; r++ {
				it.attempted++
				t0 := p.Now()
				n := 0
				_, err := p.Write(fd, []byte{1})
				for err == nil && n < serveFileBytes {
					var c int
					c, err = p.Read(fd, got[n:])
					if c == 0 {
						break
					}
					n += c
				}
				latencies = append(latencies, p.Now().Sub(t0))
				delivered += int64(n)
				switch {
				case err != nil:
					it.fail("client %d request %d: %v", i, r, err)
				case n != serveFileBytes:
					it.fail("client %d request %d: reply of %d bytes, want %d", i, r, n, serveFileBytes)
				case !bytes.Equal(got, payload):
					it.fail("client %d request %d: reply payload differs from the file", i, r)
				}
				replied()
				p.SleepFor(think[i][r])
			}
			_ = p.Close(fd)
		})
	}

	test = k.Spawn("test", func(p *kernel.Proc) {
		for !ready {
			_ = p.Sleep(&ready, kernel.PWAIT)
		}
		t0 := p.Now()
		for i := 0; i < serveTestOps/scale; i++ {
			p.Compute(serveTestCost)
		}
		elapsed = p.Now().Sub(t0)
		if replies < total {
			it.fail("%s: test program ended after %d of %d replies; it must span the serving window", name, replies, total)
		}
	})

	runMachine(it, m)
	it.vals["server.requests"] += float64(srv.Requests())

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res := serveResult{n: len(latencies)}
	baseline := sim.Duration(serveTestOps/scale) * serveTestCost
	if elapsed > 0 {
		res.availPct = 100 * float64(baseline) / float64(elapsed)
		res.kbs = float64(delivered) / 1024 / elapsed.Seconds()
	}
	if n := len(latencies); n > 0 {
		res.p50 = latencies[(n-1)/2]
		res.p95 = latencies[(n*95+99)/100-1]
	}
	return res
}

// ---- check_mix ----

// One check_mix iteration is 8 standard simcheck runs and 4 crash runs.
// All but one of each are a fixed regression corpus (seeds 1, 2, ...) at
// simcheck's default 60 ops; the last of each is a fresh seed drawn from
// -seed, as a seed sweep in CI would add, at half length. Random op
// sequences differ several-fold in cost (one standard seed's simulated
// time ranges from 3 s to 18 s), so an iteration made only of fresh
// seeds would differ from one -seed to the next by more than any change
// the benchmark is meant to detect.
const (
	checkStandard = 8
	checkCrash    = 4
	checkFreshOps = 30
)

// checkConfigs derives the iteration's simcheck runs from the seed.
func checkConfigs(seed uint64) []simcheck.Config {
	r := sim.NewRand(seed ^ 0xC4EC)
	var cfgs []simcheck.Config
	for _, class := range []struct {
		n     int
		crash bool
	}{{checkStandard / scale, false}, {checkCrash / scale, true}} {
		for i := 1; i < class.n; i++ {
			cfgs = append(cfgs, simcheck.Config{Seed: uint64(i), Crash: class.crash})
		}
		cfgs = append(cfgs, simcheck.Config{Seed: r.Uint64() >> 1, Crash: class.crash, Ops: checkFreshOps})
	}
	return cfgs
}

// checkDigests holds each run's first-round digest, by (seed, crash);
// every later round must reproduce it.
var checkDigests = map[simcheck.Config]uint64{}

func checkIter(it *iter) {
	cfgs := checkConfigs(it.seed)
	// simcheck.Run builds, boots and tears down its machine inside the
	// call, so the fixed cost per seed is measured on its own: the same
	// machines given a single op each.
	it.phase("build", func() {
		for _, cfg := range cfgs {
			cfg.Ops = 1
			if r := simcheck.Run(cfg); r.Failed() {
				it.fail("boot-only seed %d: %v", cfg.Seed, r.Violation)
			}
		}
	})
	var hostStd, hostCrash float64
	var ops int
	for _, cfg := range cfgs {
		idx := it.begin("check")
		r := simcheck.Run(cfg)
		it.end(idx)
		sp := it.spans[idx]
		ms := float64(sp.EndNs-sp.StartNs) / 1e6
		if cfg.Crash {
			hostCrash += ms
		} else {
			hostStd += ms
		}
		it.attempted++
		first, seen := checkDigests[cfg]
		switch {
		case r.Failed():
			it.fail("seed %d crash=%v: %v", cfg.Seed, cfg.Crash, r.Violation)
		case !seen:
			checkDigests[cfg] = r.Digest
		case first != r.Digest:
			it.fail("seed %d crash=%v: digest %016x, first round gave %016x", cfg.Seed, cfg.Crash, r.Digest, first)
		}
		ops += r.Ops
		it.simNs += sim.Duration(r.Stats.Now)
		it.busyNs += sim.Duration(r.Stats.Now) - r.Stats.Idle
		it.switches += r.Stats.Switches
		it.intrs += r.Stats.Interrupts
		it.ticks += r.Stats.Ticks
	}
	it.vals["simcheck.ops_per_iter"] = float64(ops)
	it.hostVals = map[string]float64{
		"simcheck.host_ms_per_seed":       hostStd / float64(checkStandard/scale),
		"simcheck.host_ms_per_crash_seed": hostCrash / float64(checkCrash/scale),
	}
}

func must(err error) {
	if err != nil {
		panic("benchmark: " + err.Error())
	}
}
