package simcheck

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// corpus is the pinned corpus: seeds 1..n of each class, at 60 ops.
var corpus = []struct {
	name  string
	crash bool
	n     uint64
}{{"standard", false, 7}, {"crash", true, 3}}

// TestDigestsGolden pins the run digests of the benchmark's fixed
// corpus — standard seeds 1–7 and crash seeds 1–3 at 60 ops — across
// commits. Every other digest comparison in the tree is run-vs-rerun;
// this one is what lets a refactor claim "digests unchanged". A diff
// means the modeled machine's behavior changed (an op result, a virtual
// time, a CPU account or a traced event), not flakiness. To regenerate
// (with the reason stated in the PR) paste the "got" block the failure
// prints; `kdpcheck -seed N` and `kdpcheck -crash -seed N` print the
// same digests one at a time.
func TestDigestsGolden(t *testing.T) {
	var b strings.Builder
	for _, class := range corpus {
		for seed := uint64(1); seed <= class.n; seed++ {
			res := Run(Config{Seed: seed, Ops: 60, Crash: class.crash})
			if res.Failed() {
				t.Fatalf("%s seed %d: %v", class.name, seed, res.Violation)
			}
			fmt.Fprintf(&b, "%s seed %d digest %016x\n", class.name, seed, res.Digest)
		}
	}
	const golden = "testdata/digests.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("digests differ from %s:\ngot:\n%swant:\n%s", golden, b.String(), want)
	}
}
