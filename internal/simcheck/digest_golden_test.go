package simcheck

import (
	"flag"
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

// update is set by `make goldens`, which reruns the pinned-output tests
// to rewrite what they compare against.
var update = flag.Bool("update", false, "rewrite the pinned outputs under testdata/")

// pinned returns the contents of the golden file at path — under -update
// after writing got there, so the caller's comparison holds.
func pinned(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return want
}

// TestDigestsGolden pins the run digests of the benchmark's fixed
// corpus — standard seeds 1–7 and crash seeds 1–3 at 60 ops — across
// commits. Every other digest comparison in the tree is run-vs-rerun;
// this one is what lets a refactor claim "digests unchanged". A diff
// means the modeled machine's behavior changed (an op result, a virtual
// time, a CPU account or a traced event), not flakiness. `make goldens`
// regenerates the file (state the reason in the PR); `kdpcheck -seed N`
// and `kdpcheck -crash -seed N` print the same digests one at a time.
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
	if want := pinned(t, golden, []byte(b.String())); b.String() != string(want) {
		t.Errorf("digests differ from %s:\ngot:\n%swant:\n%s", golden, b.String(), want)
	}
}
