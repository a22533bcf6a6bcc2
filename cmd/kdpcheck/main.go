// Command kdpcheck drives the deterministic-simulation check harness
// (internal/simcheck): randomized workloads over a full simulated
// machine with cross-layer invariant checking at every scheduling
// boundary, an in-memory content oracle, an end-of-run fsck, and
// seed-replay verification.
//
// Usage:
//
//	kdpcheck -seeds 100            # sweep seeds 0..99, replay-verify each
//	kdpcheck -seeds 100 -start 500 # sweep seeds 500..599
//	kdpcheck -seed 39 -v           # run one seed, print the event log
//	kdpcheck -seed 39 -minimize    # shrink a failing seed's op sequence
//	kdpcheck -ops 200 -workers 3   # heavier per-seed workload
//	kdpcheck -seed 3 -damage busy-on-freelist   # self-test the checkers
//	kdpcheck -crash -seeds 100     # crash sweep: power cut + repair + remount per seed
//	kdpcheck -faults -seeds 50     # fault sweep: census each seed, re-run per (site, k)
//	kdpcheck -seed 7 -fault-site disk.rz56.wrerr -fault-k 3 -v   # one armed run
//	kdpcheck -seeds 1000 -j 4      # four seeds at a time (default: one per CPU)
//
// A sweep checks -j seeds at a time, each on a machine of its own, and
// prints every seed's lines in seed order, so its output is the same
// for every -j.
//
// A failing seed prints the violated invariant, the minimal failing op
// subsequence (ddmin bisection), and the exact command to reproduce it.
// Exit status is 1 if any seed fails, 2 on usage errors.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"kdp/internal/buf"
	"kdp/internal/simcheck"
)

// errFailed marks check failures (exit 1) as opposed to usage errors
// (exit 2).
var errFailed = errors.New("check failed")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errFailed):
		os.Exit(1)
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "kdpcheck:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, executes the
// requested checks, writes human-readable results to out, and returns
// errFailed if any seed failed.
func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("kdpcheck", flag.ContinueOnError)
	fl.SetOutput(out)
	kinds := buf.DamageKinds()
	damageKinds := strings.Join(kinds, ", ")
	var (
		seeds     = fl.Int("seeds", 0, "sweep this many seeds starting at -start (default mode, 25 seeds)")
		start     = fl.Uint64("start", 0, "first seed of the sweep")
		seed      = fl.Int64("seed", -1, "run this single seed instead of a sweep")
		ops       = fl.Int("ops", 60, "operations per seed")
		workers   = fl.Int("workers", 0, "worker processes per seed (0 = derive 1-3 from the seed)")
		verbose   = fl.Bool("v", false, "print the event log of every run")
		minimize  = fl.Bool("minimize", false, "with -seed: shrink a failing op sequence to a minimal repro")
		noReplay  = fl.Bool("noreplay", false, "skip the second run that verifies seed-replay determinism")
		damage    = fl.String("damage", "", "with -seed: corrupt the buffer cache mid-run to self-test the checkers ("+damageKinds+")")
		damageAt  = fl.Int("damage-after", 5, "with -damage: corrupt after this many ops")
		crash     = fl.Bool("crash", false, "crash sweep: one power cut per seed, then repair, remount, and durability checks")
		faults    = fl.Bool("faults", false, "fault sweep: census each seed's fault sites, then re-run once per (site, k) sample with a single-shot fault armed")
		faultSite = fl.String("fault-site", "", "with -seed: arm a single-shot fault at this site (see docs/FAULTS.md for site IDs)")
		faultK    = fl.Int64("fault-k", 1, "with -fault-site: fire at the k-th eligible occurrence")
		jobs      = fl.Int("j", runtime.NumCPU(), "sweep this many seeds at once; the output is the same for every -j")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}

	if *ops <= 0 {
		return fmt.Errorf("-ops must be positive (got %d)", *ops)
	}
	if *jobs <= 0 {
		return fmt.Errorf("-j must be positive (got %d)", *jobs)
	}
	if *damage != "" && !slices.Contains(kinds, *damage) {
		return fmt.Errorf("unknown damage kind %q (%s)", *damage, damageKinds)
	}
	if *damage != "" && *seed < 0 {
		return fmt.Errorf("-damage requires -seed")
	}
	if *damage != "" && *crash {
		return fmt.Errorf("-damage and -crash are mutually exclusive")
	}
	if *faults && (*damage != "" || *crash) {
		return fmt.Errorf("-faults excludes -damage and -crash (the sweep owns the disturbance schedule)")
	}
	if *faultSite != "" && *seed < 0 {
		return fmt.Errorf("-fault-site requires -seed")
	}
	if *faultSite != "" && (*faults || *damage != "" || *crash) {
		return fmt.Errorf("-fault-site runs exactly one armed configuration; drop -faults/-damage/-crash")
	}

	n := *seeds
	if n <= 0 {
		n = 25
	}
	if *faults {
		first := *start
		if *seed >= 0 {
			first, n = uint64(*seed), 1
		}
		return runFaultSweep(first, n, *ops, *jobs, *verbose, !*noReplay, out)
	}

	if *seed >= 0 {
		cfg := simcheck.Config{
			Seed: uint64(*seed), Ops: *ops, Workers: *workers,
			Damage: *damage, DamageAfter: *damageAt, Crash: *crash,
			FaultSite: *faultSite, FaultK: *faultK,
		}
		if *verbose {
			cfg.Verbose = out
		}
		replay := !*noReplay && *damage == ""
		return runOne(cfg, *minimize, replay, out)
	}
	return runSweep(*start, n, *ops, *workers, *jobs, *crash, *verbose, !*noReplay, out)
}

// inOrder calls do(i) for every i in [0, n), on j goroutines that each
// take the next i in turn, and hands the results to emit in order of i,
// each as soon as those before it have been handed on.
func inOrder[R any](n, j int, do func(i int) R, emit func(R)) {
	results := make([]chan R, n)
	for i := range results {
		results[i] = make(chan R, 1)
	}
	var next atomic.Int64
	for range min(j, n) {
		go func() {
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				results[i] <- do(i)
			}
		}()
	}
	for _, r := range results {
		emit(<-r)
	}
}

// seedLines is what one seed of a sweep prints, and whether it failed.
type seedLines struct {
	bytes.Buffer
	failed bool
}

// modeName is how a summary line says whether seeds were replayed.
func modeName(replay bool) string {
	if replay {
		return "run+replay"
	}
	return "run"
}

// runOne checks a single seed, minimizing on failure when asked.
func runOne(cfg simcheck.Config, minimize, replay bool, out io.Writer) error {
	res := simcheck.Run(cfg)
	if res.Failed() {
		fmt.Fprintf(out, "seed %d FAILED: %v\n", res.Seed, res.Violation)
		if minimize {
			min, idx := simcheck.Minimize(cfg)
			fmt.Fprintf(out, "minimized to %d op(s), original indices %v\n", min.Ops, idx)
			fmt.Fprintf(out, "minimal-run violation: %v\n", min.Violation)
		}
		fmt.Fprintf(out, "repro: %s\n", simcheck.ReproCommand(cfg))
		return errFailed
	}
	fmt.Fprintf(out, "seed %d ok: %d ops, %d workers, digest %016x\n", res.Seed, res.Ops, res.Workers, res.Digest)
	if replay {
		if err := simcheck.Replay(cfg, res); err != nil {
			fmt.Fprintf(out, "seed %d REPLAY FAILED: %v\n", cfg.Seed, err)
			return errFailed
		}
		fmt.Fprintf(out, "seed %d replay ok\n", cfg.Seed)
	}
	return nil
}

// runFaultSweep walks every error path seeds [start, start+n) can
// reach: each seed runs once fault-free to census its eligible fault
// sites, then once per sampled (site, k) with a single-shot fault armed
// at the k-th occurrence. Every seed prints its census shape and a
// folded digest of all its armed runs, so two sweeps (e.g. under
// different GOMAXPROCS) compare line-by-line. The sweep also requires
// every censused site to have fired at least once across the whole
// seed range — a site that never fires is dead fault-injection code.
func runFaultSweep(start uint64, n, ops, jobs int, verbose, replay bool, out io.Writer) error {
	type seedResult struct {
		seedLines
		runs []simcheck.FaultRun
	}
	failed := 0
	totalRuns := 0
	fired := make(map[string]int64)
	inOrder(n, jobs, func(i int) *seedResult {
		r := &seedResult{}
		s := start + uint64(i)
		cfg := simcheck.Config{Seed: s, Ops: ops}
		if verbose {
			cfg.Verbose = &r.Buffer
		}
		res := simcheck.FaultSweepSeed(cfg, replay)
		if r.failed = res.Failed(); r.failed {
			fmt.Fprintf(r, "seed %d FAULT SWEEP FAILED: %v\n", s, res.Violation)
			if res.FailedConfig.FaultSite != "" {
				min, idx := simcheck.Minimize(res.FailedConfig)
				fmt.Fprintf(r, "  minimized to %d op(s), original indices %v\n", min.Ops, idx)
				fmt.Fprintf(r, "  minimal-run violation: %v\n", min.Violation)
			}
			fmt.Fprintf(r, "  repro: %s\n", simcheck.ReproCommand(res.FailedConfig))
			return r
		}
		r.runs = res.Runs
		fmt.Fprintf(r, "seed %d: %d site(s), %d armed run(s), digest %016x\n",
			s, len(res.Census), len(res.Runs), res.Digest())
		return r
	}, func(r *seedResult) {
		r.WriteTo(out)
		if r.failed {
			failed++
		}
		for _, run := range r.runs {
			fired[run.Site] += run.Fired
		}
		totalRuns += len(r.runs)
	})
	if failed > 0 {
		fmt.Fprintf(out, "FAIL: %d of %d seed(s) failed the fault sweep\n", failed, n)
		return errFailed
	}
	sites := make([]string, 0, len(fired))
	for site := range fired {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		fmt.Fprintf(out, "site %-22s fired %d\n", site, fired[site])
	}
	fmt.Fprintf(out, "ok: %d fault seed(s) [%d..%d] clean (%s, %d ops each, %d armed runs, %d site(s) covered)\n",
		n, start, start+uint64(n)-1, modeName(replay), ops, totalRuns, len(sites))
	return nil
}

// runSweep checks seeds [start, start+n), reporting a one-line verdict
// per seed and a summary. Every failing seed is minimized and printed
// with its repro command; the sweep keeps going so one bad seed does
// not hide another. In crash mode every seed's digest is printed, so
// two sweeps (e.g. under different GOMAXPROCS) can be compared
// line-by-line for cross-process determinism.
func runSweep(start uint64, n, ops, workers, jobs int, crash, verbose, replay bool, out io.Writer) error {
	failed := 0
	inOrder(n, jobs, func(i int) *seedLines {
		r := &seedLines{}
		s := start + uint64(i)
		cfg := simcheck.Config{Seed: s, Ops: ops, Workers: workers, Crash: crash}
		if verbose {
			cfg.Verbose = &r.Buffer
		}
		res := simcheck.Run(cfg)
		if r.failed = res.Failed(); r.failed {
			fmt.Fprintf(r, "seed %d FAILED: %v\n", s, res.Violation)
			min, idx := simcheck.Minimize(cfg)
			fmt.Fprintf(r, "  minimized to %d op(s), original indices %v\n", min.Ops, idx)
			fmt.Fprintf(r, "  repro: %s\n", simcheck.ReproCommand(cfg))
			return r
		}
		if crash {
			fmt.Fprintf(r, "seed %d digest %016x\n", s, res.Digest)
		}
		if replay {
			if err := simcheck.Replay(cfg, res); err != nil {
				r.failed = true
				fmt.Fprintf(r, "seed %d REPLAY FAILED: %v\n", s, err)
			}
		}
		return r
	}, func(r *seedLines) {
		r.WriteTo(out)
		if r.failed {
			failed++
		}
	})
	if failed > 0 {
		fmt.Fprintf(out, "FAIL: %d of %d seed(s) failed\n", failed, n)
		return errFailed
	}
	kind := "seed(s)"
	if crash {
		kind = "crash seed(s)"
	}
	fmt.Fprintf(out, "ok: %d %s [%d..%d] clean (%s, %d ops each)\n", n, kind, start, start+uint64(n)-1, modeName(replay), ops)
	return nil
}
