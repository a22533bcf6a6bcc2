package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"kdp/internal/simcheck"
)

func TestSweepSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seeds", "5"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 5 seed(s) [0..4] clean") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
}

// TestJobsDoNotChangeOutput: a sweep prints the same bytes at -j 1 and
// -j 4, standard, crash and fault sweeps alike, verbose too. Under the
// race detector this is also the check that seeds checked at once
// share nothing.
func TestJobsDoNotChangeOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "12"},
		{"-crash", "-seeds", "6"},
		{"-faults", "-seeds", "2", "-ops", "25", "-noreplay"},
		{"-seeds", "3", "-ops", "20", "-v", "-noreplay"},
	} {
		var one, four strings.Builder
		if err := run(append(args, "-j", "1"), &one); err != nil {
			t.Fatalf("%v -j 1: %v\n%s", args, err, one.String())
		}
		if err := run(append(args, "-j", "4"), &four); err != nil {
			t.Fatalf("%v -j 4: %v\n%s", args, err, four.String())
		}
		if one.String() != four.String() {
			t.Errorf("%v prints differently at -j 4:\n%s\nagainst -j 1:\n%s", args, four.String(), one.String())
		}
	}
}

func TestSingleSeedVerbose(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "3", "-v", "-noreplay"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"seed 3 ok", "fsck /d0 clean"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDamageSelfTest(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-seed", "3", "-damage", "busy-on-freelist"}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("damaged run: err = %v, want errFailed\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"seed 3 FAILED", "invariant buf-free-busy", "repro:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFaultSweepSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-faults", "-seeds", "1", "-ops", "25", "-noreplay"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"seed 0:", "armed run(s), digest", "site ", "ok: 1 fault seed(s) [0..0] clean"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestSingleArmedFault(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "0", "-fault-site", "sim.crash-boundary", "-fault-k", "2", "-noreplay"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "seed 0 ok") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"stray"}, &out); err == nil || errors.Is(err, errFailed) {
		t.Errorf("stray argument: err = %v, want usage error", err)
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-damage", "hash-key"}, &out); err == nil || errors.Is(err, errFailed) {
		t.Errorf("-damage without -seed: err = %v, want usage error", err)
	}
	if err := run([]string{"-seed", "1", "-damage", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "ra-pending") {
		t.Errorf("unknown damage kind: err = %v, want a usage error listing buf.DamageKinds", err)
	}
	if err := run([]string{"-faults", "-crash"}, &out); err == nil || errors.Is(err, errFailed) {
		t.Errorf("-faults with -crash: err = %v, want usage error", err)
	}
	if err := run([]string{"-fault-site", "disk.rz58.rderr"}, &out); err == nil || errors.Is(err, errFailed) {
		t.Errorf("-fault-site without -seed: err = %v, want usage error", err)
	}
	if err := run([]string{"-seed", "1", "-fault-site", "disk.rz58.rderr", "-faults"}, &out); err == nil || errors.Is(err, errFailed) {
		t.Errorf("-fault-site with -faults: err = %v, want usage error", err)
	}
}

// TestReproReproduces feeds the flags of a printed repro line back
// through run. A failing -damage run must print a repro that fails with
// the same violation (it used to drop the disturbance, so the repro
// passed); the repro of a -crash and of a -fault-site configuration
// must replay that configuration's digest, not the default mix's.
func TestReproReproduces(t *testing.T) {
	reproFlags := func(line string) []string {
		_, flags, ok := strings.Cut(line, "go run ./cmd/kdpcheck ")
		if !ok {
			t.Fatalf("not a repro line: %q", line)
		}
		return strings.Fields(flags)
	}
	lineWith := func(out, marker string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, marker) {
				return line
			}
		}
		t.Fatalf("no %q line in:\n%s", marker, out)
		return ""
	}

	var first, again strings.Builder
	if err := run([]string{"-seed", "3", "-damage", "busy-on-freelist"}, &first); !errors.Is(err, errFailed) {
		t.Fatalf("damaged run: err = %v, want errFailed", err)
	}
	flags := reproFlags(lineWith(first.String(), "repro:"))
	if err := run(flags, &again); !errors.Is(err, errFailed) {
		t.Fatalf("repro %v: err = %v, want errFailed\n%s", flags, err, again.String())
	}
	if want, got := lineWith(first.String(), "FAILED"), lineWith(again.String(), "FAILED"); got != want {
		t.Errorf("repro %v failed differently:\n got: %s\nwant: %s", flags, got, want)
	}

	for _, cfg := range []simcheck.Config{
		{Seed: 2, Ops: 25, Crash: true},
		{Seed: 0, Ops: 25, FaultSite: simcheck.SiteCrashBoundary, FaultK: 2},
	} {
		want := simcheck.Run(cfg)
		flags := reproFlags(simcheck.ReproCommand(cfg))
		var out strings.Builder
		if err := run(append(flags, "-noreplay"), &out); err != nil {
			t.Fatalf("repro %v: %v", flags, err)
		}
		if digest := fmt.Sprintf("digest %016x", want.Digest); !strings.Contains(out.String(), digest) {
			t.Errorf("repro %v did not reproduce %s:\n%s", flags, digest, lineWith(out.String(), " ok: "))
		}
	}
}
