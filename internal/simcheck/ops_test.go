package simcheck

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// describeGolden is describe() of one fixed sample op per row, in table
// order, as printed by the describe() switch the table replaced. The
// digest folds these strings in, so they must not drift.
const describeGolden = `write d1/f2 off=4096 n=1234 pat=0xa5
writev d1/f2 off=4096 n=1234 pat=0xa5
copy d1/f2 -> d0/f3 off=4096 n=1234 pat=0xa5
read d1/f2 off=4096 n=1234
readv d1/f2 off=4096 n=1234
seq-read d1/f2 chunk=1234
trunc d1/f2
unlink d1/f2
fsync d1/f2
mmap-read d1/f2
mmap-private d1/f2 off=4096 n=1234 pat=0xa5
mmap-write d1/f2 off=4096 n=1234 pat=0xa5
msync d1/f2 off=4096 n=1234 pat=0xa5
splice d1/f2 -> d0/f3
batch-submit d1/f2 off=4096 n=1234 pat=0xa5
splice d1/f2 -> pipe
splice pipe -> d1/f2 n=1234
splice d1/f2 -> socket
splice d1/f2 -> d0/f3 sig@9
trace-snapshot
fault d1 blk=77 on read
stream-connect
poll-wait n=1234 delay=9 pat=0xa5
event-serve n=1234 pat=0xa5
stream-transfer n=1234 pat=0xa5
crash-recover
`

// TestOpTable checks the one op table: unique names, a body and a log
// format per row, both mixes summing to 100 (pick panics otherwise),
// log text pinned, and the digests.golden corpus drawing every row of
// each mix — so a row's behavior cannot change without a digest moving.
func TestOpTable(t *testing.T) {
	names := map[string]bool{}
	std, crash := 0, 0
	var described strings.Builder
	for _, row := range opTable {
		if row.name == "" || names[row.name] {
			t.Errorf("row name %q is empty or duplicated", row.name)
		}
		names[row.name] = true
		if row.run == nil || row.text == nil {
			t.Fatalf("row %s lacks a body or a describe format", row.name)
		}
		std += row.std
		crash += row.crash
		sample := &op{idx: 7, worker: 1, row: row, disk: 1, slot: 2, disk2: 0, slot2: 3, off: 4096, size: 1234,
			pat: 0xa5, sigTicks: 9, faultDisk: 1, faultBlk: 77, faultRead: true}
		described.WriteString(sample.describe() + "\n")
	}
	if std != 100 || crash != 100 {
		t.Errorf("weights sum to %d (standard) and %d (crash), want 100 and 100", std, crash)
	}
	if got := described.String(); got != describeGolden {
		t.Errorf("describe() drifted:\ngot:\n%swant:\n%s", got, describeGolden)
	}
	if crashOp.std != 0 || crashOp.crash != 0 || opTable[len(opTable)-1] != crashOp {
		t.Error("crash-recover must close the table and be drawn by neither mix")
	}

	drawn := map[bool]map[*opRow]bool{false: {}, true: {}}
	for _, class := range corpus {
		for seed := uint64(1); seed <= class.n; seed++ {
			for _, o := range generate(Config{Seed: seed, Ops: 60, Crash: class.crash}.normalize()) {
				drawn[class.crash][o.row] = true
			}
		}
	}
	for _, row := range opTable {
		if row.std > 0 && !drawn[false][row] {
			t.Errorf("no standard corpus seed draws %s: extend the digests.golden corpus", row.name)
		}
		if (row.crash > 0 || row == crashOp) && !drawn[true][row] {
			t.Errorf("no crash corpus seed draws %s: extend the digests.golden corpus", row.name)
		}
	}
}

// TestOpDocs keeps the op list in docs/CHECKING.md generated from the
// table: one row per op, in table order, starting with the cells below.
// On failure, fix the doc's table to match the printed cells.
func TestOpDocs(t *testing.T) {
	text, err := os.ReadFile("../../docs/CHECKING.md")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(weight int) string {
		if weight == 0 {
			return "–"
		}
		return strconv.Itoa(weight)
	}
	rest := string(text)
	for _, row := range opTable {
		cells := fmt.Sprintf("\n| `%s` | %s | %s | ", row.name, cell(row.std), cell(row.crash))
		_, after, ok := strings.Cut(rest, cells)
		if !ok {
			t.Fatalf("docs/CHECKING.md lacks, or lists out of table order, the row starting %q", cells[1:])
		}
		rest = after
	}
	if n := strings.Count(string(text), "\n| `"); n != len(opTable) {
		t.Errorf("docs/CHECKING.md lists %d ops, the table has %d", n, len(opTable))
	}
}

// TestOracleMatchesByteLoops: pattern builds one 256-byte period and
// copies it, and firstDiff compares in bulk before it scans; both must
// return what the byte-at-a-time loops they replaced returned — across a
// period boundary, at an offset about to wrap, and for inputs that first
// differ at the first, a middle and the last byte.
func TestOracleMatchesByteLoops(t *testing.T) {
	bytePattern := func(n int, off int64, pat byte) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = pat ^ byte(off+int64(i))
		}
		return data
	}
	byteFirstDiff := func(a, b []byte) int {
		for i := range a {
			if a[i] != b[i] {
				return i
			}
		}
		return -1
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 511, 512, 513, 1000, 8192, 8193} {
		for _, off := range []int64{0, 1, 250, 255, 256, 8191, 1<<20 - 3} {
			for _, pat := range []byte{0, 0x5a, 0xff} {
				want := bytePattern(n, off, pat)
				if got := pattern(make([]byte, n), off, pat); string(got) != string(want) {
					t.Fatalf("pattern(%d, %d, %#x) differs from the byte loop", n, off, pat)
				}
			}
		}
		a := bytePattern(n, 3, 0x5a)
		if got := firstDiff(a, bytePattern(n+7, 3, 0x5a)); got != -1 {
			t.Errorf("n=%d: firstDiff against a longer equal prefix = %d, want -1", n, got)
		}
		diffs := []int{-1}
		if n > 0 {
			diffs = append(diffs, 0, n/2, n-1)
		}
		for _, at := range diffs {
			b := append([]byte(nil), a...)
			if at >= 0 {
				b[at] ^= 0x80
				b[n-1] ^= 0x01 // a later difference must not win
			}
			if got, want := firstDiff(a, b), byteFirstDiff(a, b); got != want || (at >= 0 && got != at) {
				t.Errorf("n=%d, first difference at %d: firstDiff = %d, byte loop %d", n, at, got, want)
			}
		}
	}
}
