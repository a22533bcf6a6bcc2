package trace

import (
	"fmt"

	"kdp/internal/sim"
)

// Checker is a Sink validating the structural invariants of a trace
// stream as it is emitted:
//
//   - timestamps are nondecreasing in virtual time;
//   - every event's kind is defined and its pid non-negative;
//   - syscall enter/exit events form matched, properly nested pairs
//     per process, with matching names.
//
// It also keeps an independent per-kind tally so that a Metrics
// aggregator fed from the same stream can be cross-checked against it
// (CheckMetrics), catching aggregation drift.
//
// The first violation is latched in Err; subsequent events are still
// tallied. Wrap a Checker around another sink with Tee, or use it
// alone. simcheck installs one on every machine it builds.
type Checker struct {
	count [kindMax]int64
	total int64 // running sum of count
	lastT sim.Time
	any   bool
	open  map[int32][]string // per-pid stack of open syscalls
	err   error
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{open: make(map[int32][]string)}
}

// Emit validates and tallies one event.
func (c *Checker) Emit(ev Event) {
	if ev.Kind < kindMax {
		c.count[ev.Kind]++
		c.total++
	}
	c.check(ev)
}

func (c *Checker) check(ev Event) {
	if c.err != nil {
		return
	}
	if !ev.Kind.Valid() {
		c.fail(ev, "undefined event kind %d", int(ev.Kind))
		return
	}
	if ev.Pid < 0 {
		c.fail(ev, "negative pid %d", ev.Pid)
		return
	}
	if c.any && ev.T < c.lastT {
		c.fail(ev, "time went backwards: %v after %v", ev.T, c.lastT)
		return
	}
	c.lastT = ev.T
	c.any = true

	switch ev.Kind {
	case KindSyscallEnter:
		c.open[ev.Pid] = append(c.open[ev.Pid], ev.Name)
	case KindSyscallExit:
		stack := c.open[ev.Pid]
		if len(stack) == 0 {
			c.fail(ev, "syscall exit %q with no enter on pid %d", ev.Name, ev.Pid)
			return
		}
		top := stack[len(stack)-1]
		if top != ev.Name {
			c.fail(ev, "syscall exit %q does not match open enter %q on pid %d", ev.Name, top, ev.Pid)
			return
		}
		c.open[ev.Pid] = stack[:len(stack)-1]
	}
}

func (c *Checker) fail(ev Event, format string, args ...any) {
	c.err = fmt.Errorf("trace: t=%v %v: %s", ev.T, ev.Kind, fmt.Sprintf(format, args...))
}

// Err returns the first stream violation observed, or nil.
func (c *Checker) Err() error { return c.err }

// Events returns the checker's independent total event tally.
func (c *Checker) Events() int64 { return c.total }

// CheckMetrics verifies that a Metrics aggregator fed from the same
// stream agrees with the checker's independent per-kind tally — i.e.
// that counter snapshots are consistent with event deltas.
func (c *Checker) CheckMetrics(m *Metrics) error {
	if c.err != nil {
		return c.err
	}
	if m == nil {
		return fmt.Errorf("trace: CheckMetrics on nil Metrics")
	}
	// One compare of the whole arrays; the scan names the first drift.
	if m.EventCount != c.count {
		for k := Kind(1); k < kindMax; k++ {
			if m.EventCount[k] != c.count[k] {
				return fmt.Errorf("trace: metrics drift on %v: aggregator=%d stream=%d",
					k, m.EventCount[k], c.count[k])
			}
		}
	}
	if total := c.Events(); m.Events() != total {
		return fmt.Errorf("trace: metrics drift: aggregator total=%d stream total=%d",
			m.Events(), total)
	}
	return nil
}

// CheckQuiesced verifies end-of-run conditions: no syscall is still
// open on any process. Call after the machine has fully drained (it is
// normal for syscalls to be open mid-run). Of several such processes it
// reports the lowest pid, so a failing run replays to one diagnostic.
func (c *Checker) CheckQuiesced() error {
	if c.err != nil {
		return c.err
	}
	first := int32(-1)
	for pid, stack := range c.open {
		if len(stack) > 0 && (first < 0 || pid < first) {
			first = pid
		}
	}
	if first < 0 {
		return nil
	}
	stack := c.open[first]
	return fmt.Errorf("trace: pid %d ended with %d unmatched syscall enter(s), innermost %q",
		first, len(stack), stack[len(stack)-1])
}
