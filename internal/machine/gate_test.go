package machine_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"kdp/internal/bench"
)

// assemblyCalls are the calls that put a machine together. Outside this
// package (and the frozen benchmark/ tree, which carries its own probe
// rigs) nothing may spell them: everything else builds with machine.New
// and mounts with Boot.
var assemblyCalls = []string{
	"buf.NewCache(", "vm.NewPool(", "disk.New(", ".SetCache(", ".SetVM(",
	"fs.Mkfs(", "fs.Mount(", "kernel.New(",
}

// layerDirs are the packages internal/machine is built from. Their tests
// assemble by hand: an in-package test importing internal/machine would
// be an import cycle.
var layerDirs = []string{"buf", "disk", "fs", "vm", "kernel"}

// handRigs are the test files outside the layers that still assemble a
// machine by hand, each with its reason.
var handRigs = map[string]string{
	// TestPairTraceDigests' pinned digests fold device names, and were
	// taken with two disks both named "rz58"; machine.New refuses that.
	"internal/splice/pair_test.go": "pinned trace digests over two disks of one name",
}

// goFiles calls visit with the slash-separated path and the lines of
// every Go file under the repository root, benchmark/ and dot
// directories apart.
func goFiles(t *testing.T, visit func(rel string, lines []string)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), strings.Split(string(src), "\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleAssembler is the CI gate for "one machine": it fails, naming
// file and line, on any assembly call in a Go file outside
// internal/machine and benchmark/. Non-test files may spell none. Test
// files may build a bare kernel.New — a kernel under a net, a pipe or a
// DAC is not a machine — and nothing else, the layers' own tests
// (layerDirs) and the listed handRigs apart.
func TestSingleAssembler(t *testing.T) {
	goFiles(t, func(rel string, lines []string) {
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
		isTest := strings.HasSuffix(rel, "_test.go")
		if dir == "machine" || isTest && (slices.Contains(layerDirs, dir) || handRigs[rel] != "") {
			return
		}
		for i, line := range lines {
			code, _, _ := strings.Cut(line, "//")
			for _, call := range assemblyCalls {
				if strings.Contains(code, call) && !(isTest && call == "kernel.New(") {
					t.Errorf("%s:%d: %s — build machines with machine.New / Boot", rel, i+1, strings.TrimSuffix(call, "("))
				}
			}
		}
	})
	for rel := range handRigs {
		if _, err := os.Stat(filepath.Join("..", "..", filepath.FromSlash(rel))); err != nil {
			t.Errorf("handRigs lists %s: %v", rel, err)
		}
	}
}

// TestPinsCoverEverySurface is the gate on the one determinism gate:
// `make pins`, and with it `make determinism` and `make reach`, runs
// only what the Makefile's PIN_CMDS lists. It fails unless every sweep
// in bench.Sweeps, -series, every cmd/* binary and every examples/*
// program has a line there.
func TestPinsCoverEverySurface(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(mk), "define PIN_CMDS\n")
	body, _, found := strings.Cut(body, "\nendef")
	if !found {
		t.Fatal("Makefile: no define PIN_CMDS ... endef block")
	}
	var pins []string // each line, space-padded so words match whole
	for _, line := range strings.Split(body, "\n") {
		pins = append(pins, " "+strings.Join(strings.Fields(line), " ")+" ")
	}
	// pinned reports whether a line runs prog with args among its words.
	pinned := func(prog, args string) bool {
		for _, line := range pins {
			if strings.HasPrefix(line, " "+prog+" ") && (args == "" || strings.Contains(line, " "+args+" ")) {
				return true
			}
		}
		return false
	}
	for _, sw := range bench.Sweeps {
		if !pinned("kdpbench", "-sweep "+sw.Name) {
			t.Errorf("PIN_CMDS has no `kdpbench -sweep %s` line", sw.Name)
		}
	}
	if !pinned("kdpbench", "-series") {
		t.Error("PIN_CMDS has no `kdpbench -series` line")
	}
	for _, dir := range []string{"cmd", "examples"} {
		progs, err := os.ReadDir(filepath.Join("..", "..", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range progs {
			if prog.IsDir() && !pinned(prog.Name(), "") {
				t.Errorf("PIN_CMDS has no line running %s/%s", dir, prog.Name())
			}
		}
	}
}

const kebab = "[a-z]+(?:-[a-z]+)+" // what a violation is named

var (
	raiseRE = regexp.MustCompile(`\b(?:Violation|violate)\("([^"]+)"`)
	kebabRE = regexp.MustCompile("^" + kebab + "$")
	nameRE  = regexp.MustCompile("`(" + kebab + ")`")
	// A catalog bullet of docs/CHECKING.md: "- `internal/<pkg>`: `name`,
	// `name`, … — what they mean", continued on indented lines.
	bulletRE = regexp.MustCompile("^\\s*- `(internal/[a-z]+)`")
)

// TestInvariantCatalog is the CI gate for "one invariant contract": a
// violation's name is a literal at the kernel.Violation (or simcheck's
// violate) call that raises it, so the names the tree can raise are
// readable off the source. It fails unless each is listed in
// docs/CHECKING.md under the package that raises it, each name listed
// there is raised there, and — for the seven layers whose checks run at
// every scheduling boundary — each has a planted fault in that package's
// trips test, so a check cannot be added, renamed or dropped without its
// documentation and its trip.
func TestInvariantCatalog(t *testing.T) {
	raised := map[string][]string{} // package directory → names, in source order
	trips := map[string]string{}    // package directory → body of its trips test
	goFiles(t, func(rel string, lines []string) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") {
			fn := "func TestCatalogTrips("
			if dir == "internal/splice" { // plants its faults on one live descriptor, under an older name
				fn = "func TestDamageTripsInvariants("
			}
			if _, body, ok := strings.Cut(strings.Join(lines, "\n"), fn); ok {
				trips[dir], _, _ = strings.Cut(body, "\nfunc ")
			}
			if !strings.HasPrefix(dir, "internal/") {
				return
			}
		}
		for i, line := range lines {
			code, _, _ := strings.Cut(line, "//")
			for _, m := range raiseRE.FindAllStringSubmatch(code, -1) {
				if strings.HasSuffix(rel, "_test.go") && !strings.HasPrefix(m[1], "perf-") {
					continue // a test's own expectation, not a check it raises
				}
				if !kebabRE.MatchString(m[1]) {
					t.Errorf("%s:%d: violation name %q is not lower-case-with-hyphens", rel, i+1, m[1])
				}
				if !slices.Contains(raised[dir], m[1]) {
					raised[dir] = append(raised[dir], m[1])
				}
			}
		}
	})

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CHECKING.md"))
	if err != nil {
		t.Fatal(err)
	}
	bullets, cur := map[string]string{}, ""
	for _, line := range strings.Split(string(doc), "\n") {
		if m := bulletRE.FindStringSubmatch(line); m != nil {
			cur = m[1]
		} else if !strings.HasPrefix(line, " ") {
			cur = ""
		}
		if cur != "" {
			bullets[cur] += line + "\n"
		}
	}
	listed := map[string][]string{}
	for dir, text := range bullets {
		names, _, _ := strings.Cut(text, "—") // the rest of the bullet is prose
		for _, m := range nameRE.FindAllStringSubmatch(names, -1) {
			listed[dir] = append(listed[dir], m[1])
		}
	}

	for dir, names := range raised {
		for _, name := range names {
			if !slices.Contains(listed[dir], name) {
				t.Errorf("%s raises %s, which docs/CHECKING.md does not list under `%s`", dir, name, dir)
			}
			// A planted fault is a row of the trips table, or — splice's
			// drain check — a violates(err, name) assertion.
			if dir != "internal/simcheck" && !strings.Contains(trips[dir], `{"`+name+`", `) &&
				!strings.Contains(trips[dir], `violates(err, "`+name+`")`) {
				t.Errorf("%s raises %s, which has no planted fault in that package's trips test", dir, name)
			}
		}
	}
	for dir, names := range listed {
		for _, name := range names {
			if !slices.Contains(raised[dir], name) {
				t.Errorf("docs/CHECKING.md lists %s under `%s`, which raises no such violation", name, dir)
			}
		}
	}
	if len(raised) != 9 {
		t.Errorf("violations raised from %d packages, want the seven layers, simcheck and bench's perf relations: %v", len(raised), raised)
	}
}
