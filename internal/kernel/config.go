// Package kernel simulates a 1992-class UNIX workstation kernel in
// virtual time: processes, a priority scheduler with round-robin
// timeslicing, sleep/wakeup, the callout list, signals and interval
// timers, a file-descriptor layer, and a CPU cost model calibrated to
// the DecStation 5000/200 used in the paper.
//
// Everything runs on the discrete-event engine from internal/sim. The
// kernel's Run loop owns simulated time; process bodies are ordinary Go
// functions hosted in coroutines (iter.Pull) that Run switches to
// directly, one at a time, which keeps the simulation fully
// deterministic. A CPU charge (Proc.Use) is served on the charging
// process's own stack, so interrupt-level code — clock ticks, callouts,
// device completions — runs on the stack of whatever it interrupted.
package kernel

import "kdp/internal/sim"

// Config holds every tunable of the machine model. The zero value is
// not useful; start from DefaultConfig.
type Config struct {
	// Name identifies the machine in traces.
	Name string

	// HZ is the hardclock frequency. Callouts have tick granularity,
	// exactly as in 4.3BSD, which matters for splice's write-side
	// scheduling through the callout list.
	HZ int

	// QuantumTicks is the round-robin scheduling quantum in clock
	// ticks for equal-priority user processes (4.3BSD: 100ms).
	QuantumTicks int

	// SyscallCost is the fixed trap + dispatch + return cost charged
	// to every system call.
	SyscallCost sim.Duration

	// ContextSwitchCost is charged whenever the CPU switches between
	// two different processes (including switches to/from idle-exit).
	ContextSwitchCost sim.Duration

	// InterruptCost is the fixed cost of taking a device interrupt
	// (vector dispatch, register save/restore), charged at interrupt
	// level before the driver's completion handler runs.
	InterruptCost sim.Duration

	// CalloutDispatchCost is charged per callout fired from softclock.
	CalloutDispatchCost sim.Duration

	// CopyBytesPerSec is the effective user<->kernel copy bandwidth
	// (copyin/copyout). The DecStation's uncached read rate is 10MB/s
	// and its write-through partial-page write rate is 20MB/s; an
	// 8KB copy touches both and pays cache/TLB overheads, giving an
	// effective large-copy rate near 6MB/s.
	CopyBytesPerSec float64

	// CopyPerCallCost is the fixed per-copy setup cost (validation,
	// page lookups).
	CopyPerCallCost sim.Duration

	// BcopyBytesPerSec is the kernel-to-kernel memory copy bandwidth
	// (used only when splice buffer sharing is disabled, and by the
	// socket layer when staging packets).
	BcopyBytesPerSec float64

	// BufHashCost approximates the buffer-cache lookup/bookkeeping
	// cost per getblk/brelse pair.
	BufHashCost sim.Duration

	// PollFdCost is charged per descriptor scanned by poll (readiness
	// query plus waiter registration — the selscan/selrecord work).
	PollFdCost sim.Duration

	// SpliceHandlerCost is the CPU cost of one splice completion
	// handler execution (read-done, write-side setup, or write-done),
	// charged at interrupt level.
	SpliceHandlerCost sim.Duration

	// PageFaultCost is the fixed trap cost of taking a page fault
	// (vector dispatch, fault decode, address-space lookup), charged
	// before the fault is resolved. Resolution adds PageMapCost and,
	// for a pagein, the buffer-cache read it triggers.
	PageFaultCost sim.Duration

	// PageMapCost is the per-page map manipulation cost (pmap enter /
	// remove / protection change) charged whenever a page is entered
	// into, removed from, or write-enabled in an address space.
	PageMapCost sim.Duration

	// MaxRunTime aborts a simulation that exceeds this much virtual
	// time, as a watchdog against livelock in experiments. Zero means
	// no limit.
	MaxRunTime sim.Duration

	// Seed seeds the machine's PRNG (disk jitter, workload data).
	Seed uint64
}

// DefaultConfig returns the DecStation 5000/200 calibration used by the
// paper's experiments: 25MHz R3000 (~20 MIPS), 32MB memory, 100Hz clock.
func DefaultConfig() Config {
	return Config{
		Name:                "decstation5000/200",
		HZ:                  100,
		QuantumTicks:        10, // 100ms round-robin, as 4.3BSD roundrobin()
		SyscallCost:         40 * sim.Microsecond,
		ContextSwitchCost:   120 * sim.Microsecond,
		InterruptCost:       90 * sim.Microsecond,
		CalloutDispatchCost: 25 * sim.Microsecond,
		CopyBytesPerSec:     4.8e6,
		CopyPerCallCost:     25 * sim.Microsecond,
		BcopyBytesPerSec:    8.0e6,
		BufHashCost:         18 * sim.Microsecond,
		PollFdCost:          8 * sim.Microsecond,
		SpliceHandlerCost:   30 * sim.Microsecond,
		PageFaultCost:       60 * sim.Microsecond,
		PageMapCost:         15 * sim.Microsecond,
		MaxRunTime:          0,
		Seed:                1,
	}
}

// TickDuration returns the period of one hardclock tick.
func (c *Config) TickDuration() sim.Duration {
	return sim.Duration(int64(sim.Second) / int64(c.HZ))
}

// CopyCost returns the charge for moving n bytes across the user/kernel
// boundary.
func (c *Config) CopyCost(n int) sim.Duration {
	return c.CopyPerCallCost + sim.BytesAt(int64(n), c.CopyBytesPerSec)
}

// BcopyCost returns the charge for an in-kernel memory copy of n bytes.
func (c *Config) BcopyCost(n int) sim.Duration {
	return sim.BytesAt(int64(n), c.BcopyBytesPerSec)
}
