// Package simcheck is the deterministic-simulation check harness: it
// drives randomized workloads over a full simulated machine while
// verifying cross-layer invariants at every scheduling boundary, checks
// end-state file contents against an in-memory oracle, and verifies
// that a seed replays to a bit-identical event log and CPU accounting.
//
// The harness leans on the property that makes the simulator a
// simulator: given a seed, the entire machine — scheduler, disks,
// buffer cache, splice engine, network — is a deterministic function of
// the op sequence. A failing seed is therefore a complete bug report:
// re-running it reproduces the failure exactly, and bisecting its op
// sequence (Minimize) shrinks it to a minimal repro.
//
// Four layers of checking:
//
//  1. Invariant hooks. At every scheduling boundary the kernel probe
//     (kernel.SetProbe) re-validates the whole machine
//     (machine.CheckInvariants): the buffer cache (including the
//     readahead flag/budget discipline), the kernel's scheduler and
//     callouts with the splice descriptors and stream transports it
//     tracks, the disk request queues, in-core filesystem state and the
//     page pool. A catalog whose owner's generation has not moved since
//     its last passing walk is skipped (kernel.Gen).
//  2. Oracle. Every generated op updates an in-memory model of expected
//     file contents; reads verify against it inline and a final sweep
//     re-reads every file. Disk-fault injection taints the affected
//     volume, downgrading content checks to error-tolerance checks.
//  3. Trace stream. Every machine runs with structured tracing on: a
//     trace.Checker validates the stream at each probe (nondecreasing
//     virtual time, matched syscall enter/exit pairs, counter snapshots
//     consistent with event deltas), and a clean run must quiesce with
//     no syscall left open.
//  4. Replay. Replay runs a seed once more and asserts the event-log
//     digest — which folds in the typed trace-stream digest — and CPU
//     accounting are bit-identical, the property that makes "rerun the
//     seed" a faithful repro.
//
// Every checked object is found through the run's own kernel, so the
// checker keeps no state outside the machine it checks.
package simcheck

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	mach "kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/trace"
)

// Machine geometry. Small on purpose: a 64-buffer cache and a nearly
// full second disk reach eviction, reclaim and ENOSPC paths that a
// roomy machine never exercises. The cache's eighth is an 8-frame page
// pool, smaller than a single mapped file (files reach 80KB, ten
// pages), so every mmap op runs the clock pageout and reclaim paths,
// not just demand paging.
const (
	blockSize  = mach.BlockSize
	cacheBufs  = 64
	d0Blocks   = 600 // roomy volume, RZ58
	d1Blocks   = 220 // tight volume, RZ56 (ENOSPC under load)
	ninodes    = 64
	slotsPerWk = 4
)

// Config selects one harness run.
type Config struct {
	Seed uint64
	// Ops is the total operation count across all workers (default 60).
	Ops int
	// Workers is the worker-process count; 0 derives 1–3 from the seed.
	Workers int
	// Damage, when non-empty, deliberately corrupts the buffer cache
	// (buf.Cache.Damage kind) after DamageAfter ops have executed, to
	// prove the invariant checkers trip. Test use only.
	Damage      string
	DamageAfter int
	// Crash switches the run into the crash sweep: a single worker, a
	// file-op-heavy mix with frequent fsyncs, and exactly one power cut
	// at a seed-derived op boundary, followed by repair, remount, and a
	// durability check of every pre-crash fsync'd file.
	Crash bool
	// FaultSite, when non-empty, arms a single-shot fault at the
	// FaultK-th eligible occurrence of the site (the armed re-run of a
	// fault sweep). Forces a single worker, like Crash, so the run is a
	// deterministic prefix of the fault-free census run up to the fire
	// point. FaultK defaults to 1.
	FaultSite kernel.FaultSite
	FaultK    int64
	// Verbose, when non-nil, receives the event log as it is written.
	Verbose io.Writer
}

// Result is the outcome of one harness run.
type Result struct {
	Seed    uint64
	Workers int
	Ops     int
	// Digest is an FNV-1a hash of the event log (op results, virtual
	// times, per-process and machine CPU accounting). Two runs of the
	// same seed must produce identical digests.
	Digest uint64
	Log    []string
	Stats  kernel.CPUStats
	// Census lists every fault site that reported at least one eligible
	// occurrence during the run, with counts — the deterministic input a
	// fault sweep samples (site, k) pairs from.
	Census []kernel.SiteCount
	// FaultFired is how many times the armed fault fired (armed runs
	// only; the single-shot arm makes 1 the only clean value).
	FaultFired int64
	// Violation is the first invariant or oracle failure, nil if the run
	// was clean; kernel.ViolationName names it (not an abort's, though).
	Violation error
}

// Failed reports whether the run detected a violation.
func (r *Result) Failed() bool { return r.Violation != nil }

// machine is one booted harness machine.
type machine struct {
	cfg Config
	// The assembled workstation: K, Cache, Pool, Disks, FSs and the
	// boot, invariant, power-cut and recovery verbs.
	*mach.Machine
	net *socket.Net
	// snet is a second, deliberately lossy link reserved for the stream
	// ops, so the datagram oracle on net keeps its no-loss assumptions
	// while the transport's retransmission machinery sees real drops.
	snet *socket.Net

	oracle map[string]*ofile
	log    []string
	// bufs holds each worker's I/O buffers (ioBuf): an op's data, then
	// its iovecs or a feeder's bytes. finalVerify uses worker 0's.
	bufs [][5]*sim.Block

	// Structured tracing runs on every harness machine: the checker
	// validates stream invariants (nondecreasing time, matched syscall
	// pairs, counter/aggregator agreement) and the digester folds the
	// typed event stream into the replay digest.
	tr   *trace.Tracer
	tchk *trace.Checker
	tdig *trace.Digester
	snap []trace.Counter // the trace-snapshot op's counters, a table of snapCounters

	violation  error
	curOp      string
	opsDone    int
	damaged    bool
	faulted    [2]bool
	netFaulted bool
	workers    *gate

	// blockFaults holds the fault op's arms by (disk, block), so a repeat on
	// the same block replaces the earlier defect and the final sync can
	// withdraw them all.
	blockFaults map[[2]int64]*kernel.FaultArm
}

// ofile is the oracle's model of one file's expected contents. tainted
// means the contents are no longer predictable (an op on it failed, or
// it absorbed data from an unpredictable source); existence checks
// still apply, content checks do not.
//
// The crash-durability fields model what must survive a power cut:
// created records that a successful create made the name durable (the
// ordered-metadata discipline writes inode then dirent synchronously);
// synced/syncedOK snapshot the content at the last successful fsync,
// valid until the next modification. After a crash the oracle collapses
// to this durable view (see postCrashOracle). The snapshot shares data's
// blocks, and the restore shares the snapshot's.
type ofile struct {
	data    image
	tainted bool

	created  bool
	synced   image
	syncedOK bool
}

// image is a file's bytes as the oracle holds them: a length and the
// blockSize blocks under it, each slot a reference to a sim.Block. A nil
// block, or one past the end of blocks, reads as zeros, and so does every
// byte past size. Images share blocks (share, overlay); a store copies a
// shared block first, as buf.Cache.Store does, so no image sees another's.
type image struct {
	size   int
	blocks []*sim.Block
}

// zeroBlock is what a nil block reads as. Nothing writes it.
var zeroBlock [blockSize]byte

// share gives back dst's blocks and makes it a second image of im's
// bytes on the same blocks.
func (im *image) share(dst *image) {
	dst.release()
	for _, b := range im.blocks {
		b.Ref()
	}
	dst.size, dst.blocks = im.size, append(dst.blocks, im.blocks...)
}

// release gives back the image's blocks and empties it.
func (im *image) release() { im.size, im.blocks = 0, unrefAll(im.blocks) }

// unrefAll drops a reference to each of bs and returns bs emptied.
func unrefAll(bs []*sim.Block) []*sim.Block {
	for _, b := range bs {
		b.Unref()
	}
	clear(bs)
	return bs[:0]
}

// write stores p at off, drawing or copying only the blocks it touches,
// and extends size to cover it.
func (im *image) write(off int, p []byte) {
	end := off + len(p)
	if n := (end + blockSize - 1) / blockSize; n > len(im.blocks) {
		im.blocks = append(im.blocks, make([]*sim.Block, n-len(im.blocks))...)
	}
	for len(p) > 0 {
		i, o := off/blockSize, off%blockSize
		if b := im.blocks[i]; b == nil || b.Shared() {
			im.blocks[i] = sim.NewBlock(blockSize)
			if b != nil && (o != 0 || len(p) < blockSize) {
				copy(im.blocks[i].Bytes, b.Bytes)
			}
			b.Unref()
		}
		n := copy(im.blocks[i].Bytes[o:], p)
		off, p = off+n, p[n:]
	}
	im.size = max(im.size, end)
}

// overlay stores src's first n bytes, n at most its size, over im's: a
// splice's update. The whole blocks among them are shared, not copied.
func (im *image) overlay(src *image, n int) {
	whole := n / blockSize
	im.write(whole*blockSize, src.span(whole * blockSize)[:n%blockSize])
	for i, b := range src.blocks[:whole] {
		b.Ref()
		im.blocks[i].Unref()
		im.blocks[i] = b
	}
}

// span returns the image's bytes from off to the end of the block that
// holds off: the one place a reader of an image finds its bytes.
func (im *image) span(off int) []byte {
	i, o := off/blockSize, off%blockSize
	if i < len(im.blocks) && im.blocks[i] != nil {
		return im.blocks[i].Bytes[o:]
	}
	return zeroBlock[o:]
}

// diff returns the index of the first byte of got that differs from the
// image's bytes at off, -1 if none does.
func (im *image) diff(off int, got []byte) int {
	for i := 0; i < len(got); {
		b := im.span(off + i)
		b = b[:min(len(b), len(got)-i)]
		if j := firstDiff(got[i:i+len(b)], b); j >= 0 {
			return i + j
		}
		i += len(b)
	}
	return -1
}

// normalize resolves cfg's defaults and the single-worker rules, so
// generation and execution see the configuration that actually runs.
func (cfg Config) normalize() Config {
	if cfg.Ops <= 0 {
		cfg.Ops = 60
	}
	if cfg.FaultSite != "" && cfg.FaultK <= 0 {
		cfg.FaultK = 1
	}
	switch {
	case cfg.Crash || cfg.FaultSite != "":
		// The power cut requires a quiescent machine at the op boundary,
		// which only a single worker guarantees. Armed runs are
		// single-worker so they replay the census run's schedule exactly
		// up to the fire point, and so a crash-boundary fire finds the
		// quiescent machine doCrash requires.
		cfg.Workers = 1
	case cfg.Workers <= 0:
		cfg.Workers = 1 + int(cfg.Seed%3)
	}
	if cfg.Damage != "" && cfg.DamageAfter <= 0 {
		cfg.DamageAfter = 1
	}
	return cfg
}

// Run executes one harness run and reports the outcome. It never
// returns a nil Result.
func Run(cfg Config) *Result {
	cfg = cfg.normalize()
	return execute(cfg, generate(cfg))
}

// Replay runs cfg once more, quietly, and compares the outcome with
// first — the result of an earlier Run(cfg). It is the one replay
// comparator: a clean first run, a clean second run, identical
// event-log digests, identical CPU accounting.
func Replay(cfg Config, first *Result) error {
	seed := cfg.Seed
	if first.Violation != nil {
		return fmt.Errorf("simcheck: replay of failing seed %d: %w", seed, first.Violation)
	}
	cfg.Verbose = nil
	second := Run(cfg)
	if second.Violation != nil {
		return fmt.Errorf("simcheck: second run of seed %d failed: %w", seed, second.Violation)
	}
	if first.Digest != second.Digest {
		return fmt.Errorf("simcheck: seed %d is not deterministic: digests %016x != %016x%s",
			seed, first.Digest, second.Digest, firstLogDiff(first.Log, second.Log))
	}
	if first.Stats != second.Stats {
		return fmt.Errorf("simcheck: seed %d CPU accounting diverged: %+v != %+v", seed, first.Stats, second.Stats)
	}
	return nil
}

// firstLogDiff renders the first differing event-log line, for
// diagnosing a replay divergence.
func firstLogDiff(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("\n  first divergence at line %d:\n    run1: %s\n    run2: %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("\n  logs are a prefix of each other (%d vs %d lines)", len(a), len(b))
}

// checkMachine assembles the harness machine for seed: the roomy RZ58
// at /d0 and the tight RZ56 at /d1. The disks keep their bare model
// names — the disk.rz58.* / disk.rz56.* fault sites and onFire's prefix
// match are spelled with them.
func checkMachine(seed uint64) *mach.Machine {
	spec := mach.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: cacheBufs}
	spec.Kernel.Name = fmt.Sprintf("simcheck-%d", seed)
	spec.Kernel.Seed = seed
	spec.Kernel.MaxRunTime = 600 * sim.Second // watchdog: fuzz runs finish in simulated seconds
	for i, params := range []disk.Params{
		disk.RZ58(d0Blocks, blockSize),
		disk.RZ56(d1Blocks, blockSize),
	} {
		spec.Disks = append(spec.Disks, mach.DiskSpec{
			Mount: fmt.Sprintf("/d%d", i), Params: params, Inodes: ninodes,
		})
	}
	return mach.New(spec)
}

// execute runs an explicit op list under an already normalized cfg (Run
// generates the list; Minimize replays subsets of it).
func execute(cfg Config, ops []*op) *Result {
	m := &machine{
		cfg:         cfg,
		Machine:     checkMachine(cfg.Seed),
		oracle:      make(map[string]*ofile),
		bufs:        make([][5]*sim.Block, cfg.Workers),
		blockFaults: make(map[[2]int64]*kernel.FaultArm),
	}
	defer m.Release() // the Result below holds nothing of the volumes
	defer m.giveBack()
	m.net = socket.NewNet(m.K, socket.Loopback())
	lossy := socket.Loopback()
	lossy.Name = "snet" // distinct fault sites: "net.snet.drop" etc.
	m.snet = socket.NewNet(m.K, lossy)
	defer m.net.Release()
	defer m.snet.Release()
	// Every fifth data datagram on snet is lost, for the whole run.
	m.K.Faults().Arm(kernel.FaultArm{
		Site: m.snet.DropSite(), Every: 5,
		Match: kernel.MatchAny, Count: -1, Quiet: true,
	})
	m.tchk = trace.NewChecker()
	m.tdig = trace.NewDigester()
	m.tr = m.K.StartTrace(trace.Tee(m.tchk, m.tdig))

	var arm *kernel.FaultArm

	m.K.SetProbe(m.probe)

	perWorker := make([][]*op, cfg.Workers)
	for _, o := range ops {
		perWorker[o.worker] = append(perWorker[o.worker], o)
	}

	m.K.Spawn("boot", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			panic("simcheck: mount: " + err.Error())
		}
		// Fault exploration begins here: boot-time transfers (mkfs,
		// mount) are not eligible injection points — a fault there has
		// no op to report to — so the census restarts and the sweep's
		// arm is installed only now. Census and armed runs share this
		// boundary, which keeps their occurrence numbering aligned.
		m.K.Faults().ResetCensus()
		if cfg.FaultSite != "" {
			arm = m.K.Faults().Arm(kernel.FaultArm{
				Site: cfg.FaultSite, K: cfg.FaultK, Match: kernel.MatchAny,
			})
			m.K.Faults().OnFire = m.onFire
		}
		m.workers = m.newGate(cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			ops := perWorker[w]
			m.K.Spawn(fmt.Sprintf("fuzz%d", w), func(wp *kernel.Proc) { m.worker(wp, ops) })
		}
		m.workers.await(p)
		m.finalVerify(p)
	})

	if err := m.K.Run(); err != nil && m.violation == nil {
		m.fail(fmt.Errorf("simulation aborted: %w", err))
	}

	// End-of-run trace checks (the abort path can legitimately leave
	// syscalls open, so only a clean run must quiesce), the last of them
	// that the trace's CPU classes add up to the run's virtual time. The
	// trace digest goes into the event log, so VerifyReplay covers the
	// typed stream.
	if m.violation == nil {
		err := m.tchk.CheckQuiesced()
		if err == nil {
			err = m.tchk.CheckMetrics(m.tr.Metrics())
		}
		if err == nil {
			err = m.K.CheckClock()
		}
		if err == nil {
			err = m.checkOracleRefs()
		}
		if err != nil {
			m.violation = fmt.Errorf("simcheck: seed %d: %w", cfg.Seed, err)
			m.logf("VIOLATION %v", m.violation)
		}
	}
	m.logf("trace: events=%d digest=%016x", m.tchk.Events(), m.tdig.Sum())

	m.logf("end: d0 errors=%d d1 errors=%d cache hits=%d",
		m.Disks[0].Errors(), m.Disks[1].Errors(), m.tr.Metrics().BufHits)
	var fired int64
	if arm != nil {
		fired = arm.Fired()
		m.logf("fault: site=%s k=%d seen=%d fired=%d", cfg.FaultSite, cfg.FaultK, arm.Seen(), fired)
	}
	st := m.K.Stats()
	m.logf("stats: now=%v idle=%v intr=%v switching=%v switches=%d interrupts=%d ticks=%d",
		st.Now, st.Idle, st.Interrupt, st.Switching, st.Switches, st.Interrupts, st.Ticks)

	return &Result{
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		Ops:        len(ops),
		Digest:     digest(m.log),
		Log:        m.log,
		Stats:      st,
		Census:     m.K.Faults().Census(),
		FaultFired: fired,
		Violation:  m.violation,
	}
}

// checkOracleRefs is oracle-block-refs: a block of a file's content or
// snapshot has one reference per image slot, unless copied without share.
func (m *machine) checkOracleRefs() error {
	slots := map[*sim.Block]int{}
	for _, of := range m.oracle {
		for _, b := range slices.Concat(of.data.blocks, of.synced.blocks) {
			slots[b]++
		}
	}
	for _, path := range m.oraclePaths() {
		of := m.oracle[path]
		for i, b := range slices.Concat(of.data.blocks, of.synced.blocks) {
			if b != nil && b.Refs() != slots[b] {
				return kernel.Violation("oracle-block-refs", "%s: block %d of its content and snapshot has %d reference(s) in %d slot(s)",
					path, i, b.Refs(), slots[b])
			}
		}
	}
	return nil
}

// snapCounters sizes the trace-snapshot op's table: a 60-op seed's
// snapshot holds up to about 160 counters.
const snapCounters = 256

// giveBack gives the oracle's images, the workers' I/O buffers and the
// snapshot table back (the table only if no snapshot outgrew it).
func (m *machine) giveBack() {
	for _, of := range m.oracle {
		of.data.release()
		of.synced.release()
	}
	for w := range m.bufs {
		unrefAll(m.bufs[w][:])
	}
	if cap(m.snap) == snapCounters {
		sim.RestTable(m.snap[:snapCounters])
	}
}

// onFire classifies an armed-plan fire into the harness's tolerance
// classes the instant the fault lands. A lost or errored transfer on a
// volume suspends content checks there (delayed writes may silently die
// on the floor, exactly like a fault-op-injected defect); a perturbed
// oracle datagram net downgrades the splice-to-socket byte accounting.
// Fires from the harness's own quiet arms (the fault op's defective blocks,
// snet's every-fifth drop) are not the armed fault and keep their own
// handling.
func (m *machine) onFire(site kernel.FaultSite, arg int64) {
	if site != m.cfg.FaultSite {
		return
	}
	switch {
	case strings.HasPrefix(site, "disk.rz58."):
		m.faulted[0] = true
	case strings.HasPrefix(site, "disk.rz56."):
		m.faulted[1] = true
	case strings.HasPrefix(site, "net.net."):
		m.netFaulted = true
	}
	// fs.*.nospace fires need no downgrade: a failed allocation is a
	// clean synchronous error the ops already tolerate (the tight rz56
	// volume produces organic ENOSPC in every long sweep), and it loses
	// no written data. proc.sleep-signal likewise: ErrIntr is surfaced
	// and handled op-locally. sim.crash-boundary is handled at the op
	// boundary that hit it (see worker).
}

// probe runs at every scheduling boundary (installed via
// kernel.SetProbe): all four layers' invariants are re-validated
// between any two events.
func (m *machine) probe() {
	if m.violation != nil {
		return
	}
	if err := m.checkInvariants(); err != nil {
		m.fail(err)
	}
}

// checkInvariants validates every layer's invariants once, each catalog
// walking only if its owner moved (docs/CHECKING.md, "What a probe
// costs"), and the trace.
func (m *machine) checkInvariants() error {
	if err := m.Machine.CheckInvariants(); err != nil {
		return err
	}
	if err := m.tchk.Err(); err != nil {
		return err
	}
	return m.tchk.CheckMetrics(m.tr.Metrics())
}

// doTraceSnap folds the current counter snapshot into the event log:
// the snapshot is a pure function of the event stream so far, so replay
// divergence in any counter shows up as a digest mismatch, and the
// mid-run aggregator/stream cross-check runs under live load.
func (m *machine) doTraceSnap(p *kernel.Proc, o *op) {
	if err := m.tchk.CheckMetrics(m.tr.Metrics()); err != nil {
		m.fail(err)
		return
	}
	if m.snap == nil {
		m.snap = sim.NewTable[trace.Counter](snapCounters)[:0]
	}
	m.snap = m.tr.Metrics().AppendSnapshot(m.snap[:0])
	snap := m.snap
	var sum uint64 = 14695981039346656037
	for _, c := range snap {
		for i := 0; i < len(c.Name); i++ {
			sum ^= uint64(c.Name[i])
			sum *= 1099511628211
		}
		sum ^= uint64(c.Value)
		sum *= 1099511628211
	}
	m.opLog(o, "counters=%d events=%d sum=%016x", len(snap), m.tr.Metrics().Events(), sum)
}

// fail records the first violation, stamped with the seed, the op in
// progress and the virtual time — everything needed to reproduce.
func (m *machine) fail(err error) {
	if m.violation != nil {
		return
	}
	m.violation = fmt.Errorf("simcheck: seed %d: %w (during %s, t=%v)", m.cfg.Seed, err, m.curOp, m.K.Now())
	m.logf("VIOLATION %v", m.violation)
	// Halt the world: every state reachable from a violated invariant is
	// untrustworthy, and running on (e.g.) a corrupted buffer cache can
	// crash the simulation before the violation is reported.
	m.K.Abort(m.violation)
}

// violate raises one of the harness's own rules (docs/CHECKING.md lists
// them) on the type the layers' catalogs use.
func (m *machine) violate(name, format string, args ...any) {
	m.fail(kernel.Violation(name, format, args...))
}

func (m *machine) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	m.log = append(m.log, line)
	if m.cfg.Verbose != nil {
		fmt.Fprintln(m.cfg.Verbose, line)
	}
}

// checkable reports whether content on the given disk is still
// predictable. Once a fault is armed on a volume, delayed writes can be
// silently lost there, so content checks on it are suspended
// (error-tolerance checks remain).
func (m *machine) checkable(disk int) bool { return !m.faulted[disk] }

// ensure returns the oracle entry for path, creating it if absent.
func (m *machine) ensure(path string) *ofile {
	of := m.oracle[path]
	if of == nil {
		of = &ofile{}
		m.oracle[path] = of
	}
	return of
}

// oraclePaths lists every file the oracle knows, sorted.
func (m *machine) oraclePaths() []string {
	paths := make([]string, 0, len(m.oracle))
	for path := range m.oracle {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// taintEnsure marks path's contents unpredictable (creating the entry:
// after a failed create-op the file may or may not exist).
func (m *machine) taintEnsure(path string) { m.ensure(path).tainted = true }

// finalVerify runs after all workers have exited: every untainted file
// is re-read and compared against the oracle, both volumes are synced
// and fsck'd, and the splice registry must have drained.
func (m *machine) finalVerify(p *kernel.Proc) {
	if m.violation != nil {
		return
	}
	m.curOp = "final-verify"

	for _, path := range m.oraclePaths() {
		of := m.oracle[path]
		d := diskOf(path)
		if of.tainted || !m.checkable(d) {
			continue
		}
		fd, err := p.Open(path, kernel.ORdOnly)
		if err != nil {
			// Re-check after the error: an armed fault whose k-th eligible
			// occurrence lands inside this very open (a directory or inode
			// read) downgrades the volume mid-verify.
			if !m.checkable(d) {
				m.logf("verify %s skipped: open failed after mid-verify fault (%v)", path, err)
				continue
			}
			m.violate("oracle-exists", "final open %s: %v (oracle has %d bytes)", path, err, of.data.size)
			return
		}
		got := m.ioBuf(0, 0, of.data.size+1)
		n, err := p.Read(fd, got)
		p.Close(fd)
		if err != nil {
			if !m.checkable(d) {
				m.logf("verify %s skipped: read failed after mid-verify fault (%v)", path, err)
				continue
			}
			m.violate("final-read", "%s: %v", path, err)
			return
		}
		if n != of.data.size {
			m.violate("oracle-size", "%s has %d bytes, oracle expects %d", path, n, of.data.size)
			return
		}
		if i := of.data.diff(0, got[:n]); i >= 0 {
			m.violate("oracle-content", "%s differs at byte %d: disk %#02x, oracle %#02x", path, i, got[i], of.data.span(i)[0])
			return
		}
		m.logf("verify %s ok (%d bytes)", path, n)
	}

	for _, arm := range m.blockFaults {
		m.K.Faults().Remove(arm)
	}
	for i, f := range m.FSs {
		if err := f.SyncAll(p.Ctx()); err != nil {
			if m.faulted[i] {
				m.logf("syncall /d%d: %v (faulted volume, tolerated)", i, err)
				continue
			}
			m.violate("final-sync", "syncall /d%d: %v", i, err)
			return
		}
	}
	// Fsck-after-drain on both volumes: an unfaulted volume must check
	// clean outright; a volume that absorbed injected faults may have
	// lost delayed metadata writes, so the repairing fsck runs first and
	// must converge it to a clean volume.
	for i := range m.FSs {
		if !m.fsckVolume(p, i) {
			return
		}
	}

	// At rest: every mapping was unmapped by its op (a surviving page or
	// address space is a leaked reference), no splice descriptor or
	// unquiet stream connection is left on the kernel, and no poller is
	// still registered or asleep in poll (a leftover registration is a
	// leaked wakeup path).
	for _, check := range []func() error{m.CheckDrained, m.checkInvariants} {
		if err := check(); err != nil {
			m.fail(err)
			return
		}
	}
}

// fsckVolume runs the end-of-run fsck discipline on volume i, reporting
// whether the caller may continue. A faulted volume gets the repairing
// pass first. If the sweep's armed fault fires inside the fsck itself —
// the k-th eligible occurrence can land on any disk transfer, including
// these — the volume becomes faulted mid-check and gets exactly one
// repair-and-retry (the single-shot arm is spent, so the retry runs
// fault-free).
func (m *machine) fsckVolume(p *kernel.Proc, i int) bool {
	for attempt := 0; ; attempt++ {
		faultedAtStart := m.faulted[i]
		var rep *fs.FsckReport
		var err error
		if faultedAtStart {
			var fixed *fs.FsckReport
			fixed, rep, err = m.Repair(p, i)
			if fixed == nil {
				if attempt == 0 {
					m.logf("fsck-repair /d%d: %v (mid-verify fault, retrying)", i, err)
					continue
				}
				m.violate("fsck-run", "fsck-repair /d%d: %v", i, err)
				return false
			}
			m.logf("fsck-repair /d%d: %d problem(s), %d repair(s)", i, len(fixed.Problems), fixed.Repaired)
		} else {
			rep, err = fs.Fsck(p.Ctx(), m.Cache, m.Disks[i])
		}
		if err != nil {
			if attempt == 0 && m.faulted[i] {
				m.logf("fsck /d%d: %v (mid-verify fault, retrying with repair)", i, err)
				continue
			}
			m.violate("fsck-run", "fsck /d%d: %v", i, err)
			return false
		}
		if !rep.Clean() {
			if attempt == 0 && m.faulted[i] && !faultedAtStart {
				m.logf("fsck /d%d: %d problem(s) after mid-verify fault, retrying with repair", i, len(rep.Problems))
				continue
			}
			m.violate("fsck-clean", "/d%d has %d problem(s), first: %s", i, len(rep.Problems), rep.Problems[0])
			return false
		}
		m.logf("fsck /d%d clean: %d inodes, %d used blocks", i, rep.Inodes, rep.UsedBlocks)
		return true
	}
}

// diskOf extracts the volume index from a harness path ("/d0/..." or
// "/d1/...").
func diskOf(path string) int {
	if len(path) >= 3 && path[1] == 'd' {
		return int(path[2] - '0')
	}
	return 0
}

// firstDiff returns the index of the first differing byte, -1 if equal.
// Reads almost always match, so one bulk compare settles the common case.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// digest hashes the event log with FNV-1a 64.
func digest(log []string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, line := range log {
		for i := 0; i < len(line); i++ {
			h ^= uint64(line[i])
			h *= prime
		}
		h ^= '\n'
		h *= prime
	}
	return h
}
