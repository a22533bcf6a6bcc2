package simcheck

import (
	"errors"
	"testing"

	"kdp/internal/kernel"
)

// auditSweeps are the seeds the audit covers: those of the four kdpcheck
// pin lines, which include the digest corpus (standard seeds 1–7 and
// crash seeds 1–3, at 60 ops).
var auditSweeps = []struct {
	name          string
	seeds         uint64
	ops, workers  int
	crash, faults bool
}{
	{"standard", 340, 0, 0, false, false},
	{"long", 40, 200, 3, false, false},
	{"crash", 190, 0, 0, true, false},
	{"faults", 19, 40, 0, false, true},
}

// inCorpus reports whether seed s of a standard or crash sweep is one
// digests.golden pins.
func inCorpus(crash bool, s uint64) bool {
	for _, class := range corpus {
		if class.crash == crash && s >= 1 && s <= class.n {
			return true
		}
	}
	return false
}

// TestAuditFindsNoMissingBump runs the generation rule's audit
// (kernel.SetAudit) over every seed the kdpcheck pin lines sweep: at
// each pass the rule skips, every skipped catalog walks anyway and must
// pass, and a digest of exactly what it reads must equal the one taken
// at its owner's last walk. The buffer cache audits every pass finer:
// each buffer it did not mark must be as at its last walk, and its
// touched and full walks must agree. A write no bump or mark covered
// fails the seed with an AuditError naming the owner; the first failing
// seed ends the test. Under the race detector, which the audit's
// sequential checks do not need, it audits the digest corpus alone
// (standard seeds 1–7 and crash seeds 1–3 at 60 ops).
func TestAuditFindsNoMissingBump(t *testing.T) {
	if testing.Short() {
		t.Skip("audits 589 seeds")
	}
	defer kernel.SetAudit(false)
	for _, sw := range auditSweeps {
		for s := uint64(0); s < sw.seeds; s++ {
			if raceEnabled && (sw.ops != 0 || !inCorpus(sw.crash, s)) {
				continue
			}
			kernel.SetAudit(true) // a fresh record per seed: the last one's owners can go
			cfg := Config{Seed: s, Ops: sw.ops, Workers: sw.workers, Crash: sw.crash}
			var err error
			if sw.faults {
				err = FaultSweepSeed(cfg, false).Violation
			} else {
				err = Run(cfg).Violation
			}
			if err != nil {
				var ae *kernel.AuditError
				if errors.As(err, &ae) {
					t.Fatalf("%s seed %d: missing bump in %s: %v", sw.name, s, ae.Owner, err)
				}
				t.Fatalf("%s seed %d: %v", sw.name, s, err)
			}
		}
	}
}
