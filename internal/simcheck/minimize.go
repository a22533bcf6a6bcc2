package simcheck

import (
	"fmt"

	"kdp/internal/kernel"
)

// Minimize shrinks a failing seed's op sequence to a locally minimal
// failing subset by delta debugging (ddmin): repeatedly try dropping
// chunks of the sequence, keeping any reduction that still fails, and
// halve the chunk size when no chunk can be dropped. Because every op
// is self-contained, any subsequence is a valid workload, and because
// the simulation is deterministic, "still fails" is decidable by just
// running it — and means the same failure: a reduction is kept only when
// it trips the violation the full run tripped, by name (failures without
// one all count as the same), so the minimal seed reproduces the bug that
// was reported and not another the shrinking uncovered.
//
// It returns the final (minimal) failing result and the indices of the
// surviving ops within the original generated sequence. If the seed
// does not fail at all, the first return is the passing result and the
// index list is nil.
func Minimize(cfg Config) (*Result, []int) {
	cfg = cfg.normalize()
	full := generate(cfg)
	res := execute(cfg, full)
	if !res.Failed() {
		return res, nil
	}

	want := kernel.ViolationName(res.Violation)
	ops := full
	chunk := (len(ops) + 1) / 2
	for chunk >= 1 && len(ops) > 1 {
		reduced := false
		for start := 0; start < len(ops); start += chunk {
			end := start + chunk
			if end > len(ops) {
				end = len(ops)
			}
			candidate := make([]*op, 0, len(ops)-(end-start))
			candidate = append(candidate, ops[:start]...)
			candidate = append(candidate, ops[end:]...)
			if len(candidate) == 0 {
				continue
			}
			if r := execute(cfg, candidate); r.Failed() && kernel.ViolationName(r.Violation) == want {
				ops = candidate
				res = r
				reduced = true
				start -= chunk // retry the same window against the shrunk list
			}
		}
		if !reduced {
			chunk /= 2
		}
	}

	idx := make([]int, len(ops))
	for i, o := range ops {
		idx[i] = o.idx
	}
	return res, idx
}

// ReproCommand renders the command line that reproduces a run of cfg,
// disturbance included, with the defaults Run would apply spelled out.
func ReproCommand(cfg Config) string {
	cfg = cfg.normalize()
	extra := ""
	switch {
	case cfg.Crash:
		extra = " -crash"
	case cfg.FaultSite != "":
		extra = fmt.Sprintf(" -fault-site %s -fault-k %d", cfg.FaultSite, cfg.FaultK)
	case cfg.Damage != "":
		extra = fmt.Sprintf(" -damage %s -damage-after %d", cfg.Damage, cfg.DamageAfter)
	}
	return fmt.Sprintf("go run ./cmd/kdpcheck -seed %d -ops %d -workers %d%s -v",
		cfg.Seed, cfg.Ops, cfg.Workers, extra)
}
