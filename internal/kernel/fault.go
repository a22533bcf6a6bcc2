package kernel

import (
	"slices"
	"sort"

	"kdp/internal/trace"
)

// Fault-plan registry: the machine's single point of control for
// deterministic fault injection. Every injectable fault site — a disk
// request that can fail with ErrIO, a block allocation that can hit
// ErrNoSpace, a datagram that can be dropped, duplicated or reordered,
// an interruptible sleep that can be broken by a signal, a boundary
// where the machine can lose power — registers itself by a stable site
// ID and asks the plan, at each eligible occurrence, whether to fail
// this one. A plan is injected from outside ("trigger the k-th eligible
// occurrence of site S"), so a fault-free census run enumerates exactly
// the occurrences an armed run can hit, and the armed run is the census
// run's prefix up to the fire point — the property that makes a full
// sweep over (site, k) samples reproducible and minimizable.

// FaultSite is a stable identifier for one fault site, e.g.
// "disk.rz58.wrerr" or "proc.sleep-signal". Site IDs are part of the
// external plan format (docs/FAULTS.md) and must not be renamed
// casually.
type FaultSite = string

// MatchAny makes an arm eligible for every occurrence of its site
// regardless of the site argument.
const MatchAny int64 = -1

// SiteSleepSignal is the kernel's own fault site: each interruptible
// sleep (priority above PZERO) is one eligible occurrence, and a fire
// posts SIGIO to the sleeping process and breaks the sleep with
// ErrIntr. The site argument is the pid.
const SiteSleepSignal FaultSite = "proc.sleep-signal"

// FaultArm is one armed fault: fire at chosen occurrences of Site.
// Occurrences are counted per arm, over the hits whose argument the arm
// matches, so "the k-th eligible occurrence" is well defined even when
// another arm on the same site filters differently.
type FaultArm struct {
	Site FaultSite

	// K, when positive, fires the arm at exactly the K-th eligible
	// occurrence (1-based).
	K int64

	// Every, when positive, fires the arm at every Every-th eligible
	// occurrence (occurrence numbers divisible by Every). K and Every
	// may be combined; either condition fires.
	Every int64

	// Match restricts eligibility to occurrences whose argument equals
	// it (a block number, a port); MatchAny accepts every occurrence.
	// Non-matching occurrences do not advance the arm's count.
	Match int64

	// Count is the number of fires remaining: positive counts down,
	// negative never runs out. Arm() treats the zero value as 1
	// (single-shot).
	Count int

	// Quiet suppresses the fault.arm/fault.fire trace events: a
	// harness's background disturbances (simcheck's defective blocks and
	// lossy stream link) arm quietly, so only the fault under study
	// shows in the traced stream.
	Quiet bool

	seen  int64 // eligible occurrences observed
	fired int64 // times this arm fired
}

// Seen returns how many eligible occurrences the arm has observed.
func (a *FaultArm) Seen() int64 { return a.seen }

// Fired returns how many times the arm has fired.
func (a *FaultArm) Fired() int64 { return a.fired }

// FaultPlan is the registry of fault sites and armed faults for one
// machine. All methods run on the simulation goroutine; the plan is as
// deterministic as the site hits themselves.
type FaultPlan struct {
	k      *Kernel
	census map[FaultSite]int64
	arms   map[FaultSite][]*FaultArm

	// OnFire, when set, is invoked synchronously for every fire with
	// the site and its argument — the hook harnesses use to switch into
	// degraded-mode checking the moment the fault lands.
	OnFire func(site FaultSite, arg int64)
}

func newFaultPlan(k *Kernel) *FaultPlan {
	return &FaultPlan{
		k:      k,
		census: make(map[FaultSite]int64),
		arms:   make(map[FaultSite][]*FaultArm),
	}
}

// Faults returns the machine's fault plan. Always non-nil; with no arms
// a site hit is a census increment and nothing more.
func (k *Kernel) Faults() *FaultPlan { return k.faults }

// Arm adds an armed fault to the plan and returns a handle for Remove.
// A zero Count is normalized to 1 (single-shot).
func (fp *FaultPlan) Arm(a FaultArm) *FaultArm {
	if a.Site == "" {
		panic("kernel: FaultArm with empty site")
	}
	if a.K <= 0 && a.Every <= 0 {
		panic("kernel: FaultArm needs K or Every")
	}
	if a.Count == 0 {
		a.Count = 1
	}
	arm := &a
	fp.arms[a.Site] = append(fp.arms[a.Site], arm)
	if !a.Quiet {
		fp.k.TraceEmit(trace.KindFaultArm, 0, a.K, a.Every, a.Site)
	}
	return arm
}

// Remove withdraws an armed fault. Returns false if the handle is not
// (or no longer) armed.
func (fp *FaultPlan) Remove(h *FaultArm) bool {
	if h == nil {
		return false
	}
	list := fp.arms[h.Site]
	for i, a := range list {
		if a != h {
			continue
		}
		list = slices.Delete(list, i, i+1)
		if len(list) == 0 {
			delete(fp.arms, h.Site)
		} else {
			fp.arms[h.Site] = list
		}
		return true
	}
	return false
}

// Hit reports one eligible occurrence of site with the given argument
// (block number, datagram ordinal, pid — site-specific) and returns
// whether an armed fault fires on it. Call it from the fault site
// itself; a true return means the site must take its failure action
// (complete with ErrIO, drop the packet, post the signal).
func (fp *FaultPlan) Hit(site FaultSite, arg int64) bool {
	fp.census[site]++
	list := fp.arms[site]
	if len(list) == 0 {
		return false
	}
	fired := false
	for _, a := range list {
		if a.Match != MatchAny && a.Match != arg {
			continue
		}
		a.seen++
		if a.Count == 0 {
			continue
		}
		if (a.K > 0 && a.seen == a.K) || (a.Every > 0 && a.seen%a.Every == 0) {
			if a.Count > 0 {
				a.Count--
			}
			a.fired++
			if !a.Quiet {
				fp.k.TraceEmit(trace.KindFaultFire, 0, arg, a.seen, site)
			}
			if fp.OnFire != nil {
				fp.OnFire(site, arg)
			}
			fired = true
		}
	}
	return fired
}

// ResetCensus clears the occurrence counts without touching the arms.
// Harnesses call it at the boundary where fault exploration begins —
// typically after boot — so setup-time occurrences (mkfs, mount) are
// not sampled as injection points.
func (fp *FaultPlan) ResetCensus() { fp.census = make(map[FaultSite]int64) }

// SiteCount is one row of a census: a site and its occurrence count.
type SiteCount struct {
	Site FaultSite
	N    int64
}

// Census returns every site that reported at least one occurrence,
// sorted by site ID — the deterministic input to a fault sweep.
func (fp *FaultPlan) Census() []SiteCount {
	out := make([]SiteCount, 0, len(fp.census))
	for site, n := range fp.census {
		out = append(out, SiteCount{Site: site, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
