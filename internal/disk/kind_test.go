package disk

import (
	"strings"
	"testing"
)

// TestKindTable: every kind parses back from its own name (in any
// case), builds its model, and carries a layout default; an unknown
// name is an error that lists the valid ones.
func TestKindTable(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(strings.ToLower(k.String()))
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", strings.ToLower(k.String()), got, err, k)
		}
		if p := k.Params(128, 8192); p.Blocks != 128 || p.BlockSize != 8192 {
			t.Errorf("%v params: %d blocks of %d bytes", k, p.Blocks, p.BlockSize)
		}
		if il := k.Interleave(); il < 1 {
			t.Errorf("%v interleave = %d", k, il)
		}
	}
	if _, err := ParseKind("ZIP100"); err == nil || !strings.Contains(err.Error(), KindNames()) {
		t.Errorf("ParseKind(ZIP100) error = %v, want one listing %s", err, KindNames())
	}
}
