package main

import (
	"fmt"
	"runtime"
	"time"

	"kdp/internal/bench"
	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/splice"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/vm"
)

// Layer micro-probes: each one calls a layer's public functions in a
// tight loop on a minimal machine and reports host time per operation.
// They give a layer's unit cost; the per-iteration counts of the traced
// pass say how many units a workload spends.

// cost is one probe's result per operation.
type cost struct{ ns, bytes, allocs float64 }

// measure runs fn, which performs n operations, probeReps times and
// keeps the fastest: co-tenants only ever add time.
const probeReps = 3

func measure(n int, fn func()) cost {
	best := cost{ns: -1}
	for rep := 0; rep < probeReps; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c := cost{
			ns:     float64(dt) / float64(n),
			bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		}
		if best.ns < 0 || c.ns < best.ns {
			best = c
		}
	}
	return best
}

// probeMachine is the minimal machine the probes run on: two RAM disks
// with a filesystem each, one raw RZ58, a small cache and a page pool.
type probeMachine struct {
	k     *kernel.Kernel
	cache *buf.Cache
	ram   [2]*disk.Disk
	rz    *disk.Disk
	pool  *vm.Pool
}

const (
	probeCacheBufs  = 64
	probeDiskBlocks = 2112 // the tables' RZ58 size: 8 MB interleaved plus slack
)

// onMachine builds a probe machine, runs body as its only process and
// drives it to quiescence.
func onMachine(body func(m *probeMachine, p *kernel.Proc)) {
	k := kernel.New(kernel.DefaultConfig())
	m := &probeMachine{k: k, cache: buf.NewCache(k, probeCacheBufs, bench.BlockSize)}
	m.pool = vm.NewPool(k, 32, bench.BlockSize)
	k.SetVM(m.pool)
	newDisk := func(p disk.Params) *disk.Disk {
		d := disk.New(k, p)
		d.SetCache(m.cache)
		return d
	}
	for i := range m.ram {
		m.ram[i] = newDisk(disk.RAMDisk(probeDiskBlocks, bench.BlockSize))
		_, err := fs.Mkfs(m.ram[i], 64)
		must(err)
	}
	m.rz = newDisk(disk.RZ58(probeDiskBlocks, bench.BlockSize))
	k.Spawn("probe", func(p *kernel.Proc) {
		for i, mnt := range []string{"/a", "/b"} {
			f, err := fs.Mount(p.Ctx(), m.cache, m.ram[i])
			must(err)
			f.SetPager(m.pool)
			k.Mount(mnt, f)
		}
		body(m, p)
	})
	must(k.Run())
}

// makeFile writes blocks blocks to path and closes it.
func makeFile(p *kernel.Proc, path string, blocks int) {
	fd, err := p.Open(path, kernel.OCreat|kernel.OWrOnly|kernel.OTrunc)
	must(err)
	block := make([]byte, bench.BlockSize)
	for i := 0; i < blocks; i++ {
		_, err := p.Write(fd, block)
		must(err)
	}
	must(p.Close(fd))
}

// runProbes returns every *.probe.* metric.
func runProbes() map[string]float64 {
	out := map[string]float64{}

	// sim: schedule an event and dispatch it.
	{
		const n = 200000
		c := measure(n, func() {
			e := sim.NewEngine()
			fn := func() {}
			for i := 0; i < n; i++ {
				e.Schedule(sim.Duration(i%64), "", fn)
				if i%8 == 7 {
					for j := 0; j < 8; j++ {
						e.RunNext()
					}
				}
			}
		})
		out["sim.probe.schedule_run_ns"] = c.ns
		out["sim.probe.schedule_run_allocs"] = c.allocs
	}

	// kernel: a sleep/wakeup round trip between two processes.
	{
		const n = 20000
		c := measure(n, func() {
			k := kernel.New(kernel.DefaultConfig())
			turn := 0
			player := func(me int) func(*kernel.Proc) {
				return func(p *kernel.Proc) {
					for i := 0; i < n; i++ {
						for turn != me {
							_ = p.Sleep(&turn, kernel.PWAIT)
						}
						turn = 1 - me
						k.Wakeup(&turn)
					}
				}
			}
			k.Spawn("ping", player(0))
			k.Spawn("pong", player(1))
			must(k.Run())
		})
		out["kernel.probe.handoff_ns"] = c.ns
	}

	// kernel: arm a callout and have the clock fire it; the cheapest
	// system call.
	onMachine(func(m *probeMachine, p *kernel.Proc) {
		const rounds, per = 400, 32
		tick := m.k.Config().TickDuration()
		fired := 0
		c := measure(rounds*per, func() {
			for r := 0; r < rounds; r++ {
				for j := 0; j < per; j++ {
					m.k.Timeout(func() { fired++ }, 1)
				}
				p.SleepFor(2 * tick)
			}
		})
		if fired != probeReps*rounds*per {
			panic("benchmark: callout probe lost callouts")
		}
		out["kernel.probe.callout_ns"] = c.ns

		makeFile(p, "/a/f", 1)
		fd, err := p.Open("/a/f", kernel.ORdOnly)
		must(err)
		const n = 100000
		c = measure(n, func() {
			for i := 0; i < n; i++ {
				_, _ = p.Lseek(fd, 0, kernel.SeekSet)
			}
		})
		out["kernel.probe.syscall_ns"] = c.ns
		must(p.Close(fd))
	})

	// buf: a cache hit, and a forced miss that recycles a buffer.
	onMachine(func(m *probeMachine, p *kernel.Proc) {
		ctx := p.Ctx()
		const n = 100000
		c := measure(n, func() {
			for i := 0; i < n; i++ {
				b, err := m.cache.Bread(ctx, m.ram[0], 5)
				must(err)
				m.cache.Brelse(ctx, b)
			}
		})
		out["buf.probe.bread_hit_ns"] = c.ns
		c = measure(n, func() {
			for i := 0; i < n; i++ {
				b := m.cache.Getblk(ctx, m.rz, int64(i%(8*probeCacheBufs)))
				b.Flags |= buf.BInval
				m.cache.Brelse(ctx, b)
			}
		})
		out["buf.probe.getblk_miss_ns"] = c.ns
		out["buf.probe.getblk_miss_bytes"] = c.bytes
	})

	// disk: build a drive; queue, service and complete a request on the
	// RAM disk and on the RZ58.
	onMachine(func(m *probeMachine, p *kernel.Proc) {
		const n = 20
		c := measure(n, func() {
			for i := 0; i < n; i++ {
				disk.New(m.k, disk.RZ58(probeDiskBlocks, bench.BlockSize))
			}
		})
		out["disk.probe.new_ms"] = c.ns / 1e6

		ctx := p.Ctx()
		const batches, per = 64, probeCacheBufs / 4
		tick := m.k.Config().TickDuration()
		c = measure(2*batches*per, func() {
			for _, d := range []*disk.Disk{m.ram[1], m.rz} {
				must(m.cache.InvalidateDev(ctx, d))
				for b := 0; b < batches; b++ {
					for j := 0; j < per; j++ {
						bp := m.cache.Getblk(ctx, d, int64(64+(b*per+j)%1024))
						bp.Flags |= buf.BRead | buf.BAsync
						d.Strategy(bp)
					}
					for d.Busy() || d.QueueLen() > 0 {
						p.SleepFor(tick)
					}
				}
			}
		})
		out["disk.probe.request_ns"] = c.ns
	})

	// fs: format a volume; extend a file by one block; create and
	// unlink a name.
	onMachine(func(m *probeMachine, p *kernel.Proc) {
		const n = 50
		raw := disk.New(m.k, disk.RAMDisk(probeDiskBlocks, bench.BlockSize))
		c := measure(n, func() {
			for i := 0; i < n; i++ {
				_, err := fs.Mkfs(raw, 64)
				must(err)
			}
		})
		out["fs.probe.mkfs_ms"] = c.ns / 1e6

		const blocks = 1024
		c = measure(blocks, func() { makeFile(p, "/a/w", blocks) })
		out["fs.probe.write_8k_ns"] = c.ns
		must(p.Unlink("/a/w"))

		const names = 2000
		c = measure(names, func() {
			for i := 0; i < names; i++ {
				fd, err := p.Open("/b/n", kernel.OCreat|kernel.OWrOnly)
				must(err)
				must(p.Close(fd))
				must(p.Unlink("/b/n"))
			}
		})
		out["fs.probe.create_unlink_us"] = c.ns / 1e3
	})

	// splice: one block moved file to file; vm: one page fault filled
	// from the cache.
	onMachine(func(m *probeMachine, p *kernel.Proc) {
		const blocks = 1024
		makeFile(p, "/a/src", blocks)
		c := measure(blocks, func() {
			src, err := p.Open("/a/src", kernel.ORdOnly)
			must(err)
			dst, err := p.Open("/b/dst", kernel.OCreat|kernel.OWrOnly|kernel.OTrunc)
			must(err)
			n, err := splice.Splice(p, src, dst, splice.EOF)
			must(err)
			if n != blocks*bench.BlockSize {
				panic("benchmark: splice probe moved a short file")
			}
			must(p.Close(src))
			must(p.Close(dst))
		})
		out["splice.probe.block_ns"] = c.ns

		fd, err := p.Open("/a/src", kernel.ORdOnly)
		must(err)
		one := make([]byte, 1)
		c = measure(blocks, func() {
			addr, err := p.Mmap(fd, 0, blocks*bench.BlockSize, kernel.ProtRead, kernel.MapShared)
			must(err)
			for i := int64(0); i < blocks; i++ {
				must(p.MemRead(addr+i*bench.BlockSize, one))
			}
			must(p.Munmap(addr))
		})
		out["vm.probe.fault_ns"] = c.ns
		must(p.Close(fd))
	})

	// socket: one datagram sent and received; stream: one segment of a
	// bulk transfer, acknowledgements included.
	{
		const n = 5000
		c := measure(n, func() {
			k := kernel.New(kernel.DefaultConfig())
			net := socket.NewNet(k, socket.Loopback())
			tx, err := net.NewSocket(1)
			must(err)
			rx, err := net.NewSocket(2)
			must(err)
			must(tx.Connect(2))
			k.Spawn("tx", func(p *kernel.Proc) {
				msg := make([]byte, 1024)
				for i := 0; i < n; i++ {
					_, err := tx.Write(p.Ctx(), msg, 0)
					must(err)
				}
			})
			k.Spawn("rx", func(p *kernel.Proc) {
				msg := make([]byte, 1024)
				for i := 0; i < n; i++ {
					_, err := rx.Read(p.Ctx(), msg, 0)
					must(err)
				}
			})
			must(k.Run())
		})
		out["socket.probe.datagram_ns"] = c.ns
	}
	{
		const bytes = 1 << 20
		var segments int64
		c := measure(1, func() {
			k := kernel.New(kernel.DefaultConfig())
			net := socket.NewNet(k, socket.Loopback())
			srv, err := stream.NewTransport(k, net, 80)
			must(err)
			cli, err := stream.NewTransport(k, net, 5001)
			must(err)
			listening := false
			k.Spawn("srv", func(p *kernel.Proc) {
				must(srv.Listen(p))
				listening = true
				k.Wakeup(&listening)
				fd, _, err := srv.Accept(p)
				must(err)
				got := make([]byte, bench.BlockSize)
				for total := 0; total < bytes; {
					n, err := p.Read(fd, got)
					must(err)
					total += n
				}
				must(p.Close(fd))
			})
			k.Spawn("cli", func(p *kernel.Proc) {
				for !listening {
					_ = p.Sleep(&listening, kernel.PWAIT)
				}
				fd, _, err := cli.Connect(p, 80)
				must(err)
				block := make([]byte, bench.BlockSize)
				for off := 0; off < bytes; off += len(block) {
					_, err := p.Write(fd, block)
					must(err)
				}
				must(p.Close(fd))
			})
			must(k.Run())
			segments, _, _ = net.Stats()
		})
		out["stream.probe.segment_ns"] = c.ns / float64(segments)
	}

	// simcheck: one invariant pass over kernel, cache and stream, on a
	// machine with a warm cache and live connections.
	stream.EnableInvariants(true)
	{
		k := kernel.New(kernel.DefaultConfig())
		cache := buf.NewCache(k, probeCacheBufs, bench.BlockSize)
		d := disk.New(k, disk.RAMDisk(probeDiskBlocks, bench.BlockSize))
		d.SetCache(cache)
		net := socket.NewNet(k, socket.Loopback())
		srv, err := stream.NewTransport(k, net, 80)
		must(err)
		const conns = 4
		listening := false
		k.Spawn("srv", func(p *kernel.Proc) {
			must(srv.Listen(p))
			listening = true
			k.Wakeup(&listening)
			fds := make([]int, conns)
			for i := range fds {
				fds[i], _, err = srv.Accept(p)
				must(err)
			}
			for b := int64(0); b < probeCacheBufs; b++ {
				bp, err := cache.Bread(p.Ctx(), d, b)
				must(err)
				cache.Brelse(p.Ctx(), bp)
			}
			const n = 2000
			c := measure(n, func() {
				for i := 0; i < n; i++ {
					must(k.CheckInvariants())
					must(cache.CheckInvariants())
					must(stream.CheckInvariants())
				}
			})
			out["simcheck.probe.invariants_us"] = c.ns / 1e3
			for _, fd := range fds {
				must(p.Close(fd))
			}
		})
		for i := 0; i < conns; i++ {
			cli, err := stream.NewTransport(k, net, 5001+i)
			must(err)
			k.Spawn(fmt.Sprintf("cli-%d", i), func(p *kernel.Proc) {
				for !listening {
					_ = p.Sleep(&listening, kernel.PWAIT)
				}
				fd, _, err := cli.Connect(p, 80)
				must(err)
				// Wait for the server's close, then close this end.
				_, _ = p.Read(fd, make([]byte, 1))
				must(p.Close(fd))
			})
		}
		must(k.Run())
	}
	stream.EnableInvariants(false)

	// trace: one event through a tracer into a collector.
	{
		const n = 1000000
		c := measure(n, func() {
			col := &trace.Collector{}
			t := trace.New(col)
			ev := trace.Event{Kind: trace.KindBufHit, Pid: 1, Arg1: 7, Name: "RZ58-0"}
			for i := 0; i < n; i++ {
				ev.T = sim.Time(i)
				t.Emit(ev)
				if i&0xFFFF == 0xFFFF {
					col.Reset()
				}
			}
		})
		out["trace.probe.emit_ns"] = c.ns
	}
	return out
}
