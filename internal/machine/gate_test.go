package machine_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// assemblyCalls are the calls that put a machine together. Outside this
// package (and the frozen benchmark/ tree, which carries its own probe
// rigs) only tests may spell them: everything else builds with
// machine.New and mounts with Boot.
var assemblyCalls = []string{
	"buf.NewCache(", "vm.NewPool(", "disk.New(", ".SetCache(", ".SetVM(",
	".SetPager(", "fs.Mkfs(", "fs.Mount(", "kernel.New(",
}

// TestSingleAssembler is the CI gate for "one machine": it fails, naming
// file and line, on any assembly call in a non-test Go file outside
// internal/machine and benchmark/.
func TestSingleAssembler(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || rel == filepath.Join("internal", "machine") || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			for _, call := range assemblyCalls {
				if strings.Contains(code, call) {
					t.Errorf("%s:%d: %s — build machines with machine.New / Boot", rel, line, strings.TrimSuffix(call, "("))
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}
