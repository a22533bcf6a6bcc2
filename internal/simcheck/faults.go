package simcheck

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// Fault sweep: walk every error path the workload can reach. The seed
// runs once fault-free to census the eligible fault sites (every disk
// transfer, block allocation, datagram, interruptible sleep and op
// boundary reports itself to the kernel fault plan), then re-runs once
// per sampled (site, k) pair with a single-shot fault armed at the k-th
// eligible occurrence. Because the armed run is single-worker and the
// arm changes nothing until it fires, the armed run is the census run's
// exact prefix up to the fire point — so the k-th occurrence is
// guaranteed to be reached, and "armed but never fired" is itself a
// violation.
//
// Every armed run is held to the full harness contract plus the
// post-fault graceful-degradation contract: the erroring operation
// surfaces a real error exactly once (the arm is single-shot, and the
// end-of-run log line pins fired=1), the machine still quiesces (the
// worker and every helper process exit, splice/stream/pool/poll
// registries drain), no buffer, callout, proc, ghost or page leaks
// (the same ~60 invariants re-checked at every scheduling boundary),
// and the final fsck-and-reread accepts only byte-exact content for
// files untouched by the fault.

// SiteCrashBoundary is the harness's own fault site: after each op, a
// single-worker machine is quiescent and can lose power. A fire runs
// the full crash-recovery path (discard volatile state, repairing
// fsck, remount, durability oracle) in the middle of the workload. The
// site argument is the op index.
const SiteCrashBoundary kernel.FaultSite = "sim.crash-boundary"

// The fault op arms a one-shot defect on one block of either volume.
func drawFault(r *sim.Rand, o *op) {
	o.faultDisk = r.Intn(2)
	o.faultBlk = r.Int63n([2]int64{d0Blocks, d1Blocks}[o.faultDisk])
	o.faultRead = r.Intn(2) == 0
}

func textFault(name string, o *op) string {
	mode := "on write"
	if o.faultRead {
		mode = "on read"
	}
	return fmt.Sprintf("%s d%d blk=%d %s", name, o.faultDisk, o.faultBlk, mode)
}

func (m *machine) doFault(p *kernel.Proc, o *op) {
	m.armBlockFault(o.faultDisk, o.faultBlk, o.faultRead)
	m.logf("op %d w%d %s", o.idx, o.worker, o.describe())
}

// armBlockFault makes one block of a volume fail its next read (or
// write): a quiet single-shot arm on the disk's fault site.
func (m *machine) armBlockFault(di int, blk int64, read bool) {
	site := m.Disks[di].WriteSite()
	if read {
		site = m.Disks[di].ReadSite()
	}
	fp, key := m.K.Faults(), [2]int64{int64(di), blk}
	fp.Remove(m.blockFaults[key])
	m.blockFaults[key] = fp.Arm(kernel.FaultArm{
		Site: site, Every: 1, Match: blk, Count: 1, Quiet: true,
	})
	m.faulted[di] = true
}

// FaultRun is the outcome of one armed re-run within a sweep.
type FaultRun struct {
	Site  kernel.FaultSite
	K     int64
	Fired int64
	// Digest is the armed run's event-log digest (replay-verified when
	// the sweep runs with replay enabled).
	Digest uint64
}

// FaultSweepResult is the outcome of a full per-seed fault sweep.
type FaultSweepResult struct {
	Seed uint64
	// Census is the fault-free run's site census the sweep sampled from.
	Census []kernel.SiteCount
	// Runs holds one entry per completed armed re-run, in sweep order
	// (census order × ascending k).
	Runs []FaultRun
	// Violation is the first failure — from the census run, an armed
	// run, a replay divergence, or an armed fault that never fired.
	Violation error
	// FailedConfig reproduces the violation when it came from a run.
	FailedConfig Config
}

// Failed reports whether the sweep detected a violation.
func (r *FaultSweepResult) Failed() bool { return r.Violation != nil }

// Digest folds every armed run's digest (and the census digest) into
// one value, so two sweeps — e.g. under different GOMAXPROCS — can be
// compared with a single line.
func (r *FaultSweepResult) Digest() uint64 {
	h := fnv.New64a()
	for _, run := range r.Runs {
		h.Write(binary.LittleEndian.AppendUint64(nil, run.Digest))
	}
	return h.Sum64()
}

// sampleKs picks the occurrence indices to arm for a site with n
// eligible occurrences: the first, the middle and the last, deduped —
// the boundary cases plus a representative interior point.
func sampleKs(n int64) []int64 {
	ks := []int64{1, (n + 1) / 2, n}
	out := ks[:0]
	var last int64
	for _, k := range ks {
		if k > last {
			out = append(out, k)
			last = k
		}
	}
	return out
}

// FaultSweepSeed runs the full fault sweep for one seed: census, then
// one armed re-run per sampled (site, k). With replay set, every armed
// run is executed twice and the digests must match — the determinism
// contract that makes a failing (seed, site, k) triple a complete bug
// report. Damage and Crash configs are rejected; the sweep owns the
// disturbance schedule.
func FaultSweepSeed(cfg Config, replay bool) *FaultSweepResult {
	res := &FaultSweepResult{Seed: cfg.Seed}
	if cfg.Damage != "" || cfg.Crash {
		res.Violation = fmt.Errorf("simcheck: fault sweep excludes -damage and -crash")
		return res
	}
	cfg.FaultSite, cfg.FaultK = "", 0
	// Single worker everywhere: the armed runs must replay the census
	// run's schedule, and the crash-boundary site only hits
	// single-worker boundaries.
	cfg.Workers = 1

	fail := func(cfg Config, err error) *FaultSweepResult {
		res.Violation, res.FailedConfig = err, cfg
		return res
	}
	base := Run(cfg)
	if base.Violation != nil {
		return fail(cfg, fmt.Errorf("census run: %w", base.Violation))
	}
	if replay {
		if err := Replay(cfg, base); err != nil {
			return fail(cfg, err)
		}
	}
	res.Census = base.Census

	for _, sc := range base.Census {
		for _, k := range sampleKs(sc.N) {
			acfg := cfg
			acfg.FaultSite, acfg.FaultK = sc.Site, k
			r := Run(acfg)
			if r.Violation != nil {
				return fail(acfg, r.Violation)
			}
			if r.FaultFired != 1 {
				return fail(acfg, kernel.Violation("fault-fired",
					"seed %d: site %s armed at k=%d fired %d time(s), want exactly 1 (census saw %d occurrence(s))",
					cfg.Seed, sc.Site, k, r.FaultFired, sc.N))
			}
			if replay {
				if err := Replay(acfg, r); err != nil {
					return fail(acfg, fmt.Errorf("armed run (site %s, k=%d): %w", sc.Site, k, err))
				}
			}
			res.Runs = append(res.Runs, FaultRun{Site: sc.Site, K: k, Fired: r.FaultFired, Digest: r.Digest})
		}
	}
	return res
}
