package splice

import (
	"bytes"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
)

// A splice into a file maps exactly the blocks it writes. Blocks before
// the destination offset are not the transfer's: mapping them with the
// allocating bmap would attach fresh blocks no write ever reaches, and
// a read would return whatever their previous owner left there.
func TestSpliceAtOffsetLeavesPrefixAHole(t *testing.T) {
	const skip = 4 // destination blocks before the offset
	want := makeRef(bsize+100, 40)
	for _, tc := range []struct {
		name string
		src  func(t *testing.T, p *kernel.Proc) int // opens the source
	}{
		{"file-file", func(t *testing.T, p *kernel.Proc) int {
			makeFile(t, p, "/d0/src", len(want), 40)
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			return src
		}},
		{"pipe-file", func(t *testing.T, p *kernel.Proc) int {
			pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
			pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
			if _, err := p.Write(pin, want); err != nil {
				t.Fatalf("feed: %v", err)
			}
			_ = p.Close(pin)
			return pout
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, disk.RAMDisk)
			pipes(m)
			m.run(t, func(p *kernel.Proc) {
				fillAndFree(t, p, "/d1/old", 0xAA)
				src := tc.src(t, p)
				dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
				if _, err := p.Lseek(dst, skip*bsize, kernel.SeekSet); err != nil {
					t.Fatal(err)
				}
				if n, err := Splice(p, src, dst, int64(len(want))); err != nil || n != int64(len(want)) {
					t.Fatalf("splice = (%d, %v), want (%d, nil)", n, err, len(want))
				}
				_ = p.Close(dst)
				got := readAll(t, p, "/d1/dst")
				if len(got) != skip*bsize+len(want) {
					t.Fatalf("destination is %d bytes, want %d", len(got), skip*bsize+len(want))
				}
				for i, c := range got[:skip*bsize] {
					if c != 0 {
						t.Fatalf("byte %d (block %d) before the offset is %#02x, want 0", i, i/bsize, c)
					}
				}
				if !bytes.Equal(got[skip*bsize:], want) {
					t.Error("spliced data wrong")
				}
				if err := m.fsys[1].SyncAll(p.Ctx()); err != nil {
					t.Fatalf("syncall: %v", err)
				}
				if rep, err := fs.Fsck(p.Ctx(), m.cache, m.disks[1]); err != nil || !rep.Clean() {
					t.Fatalf("fsck /d1: %v, problems %v", err, rep.Problems)
				}
			})
		})
	}
}

// fillAndFree fills path's volume with a file of b, fsyncs and unlinks
// it: every free block then holds b, wherever the allocator's rotor
// stands.
func fillAndFree(t *testing.T, p *kernel.Proc, path string, b byte) {
	t.Helper()
	fd, err := p.Open(path, kernel.OCreat|kernel.OWrOnly)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	block := bytes.Repeat([]byte{b}, bsize)
	for {
		if _, err := p.Write(fd, block); err == kernel.ErrNoSpace {
			break
		} else if err != nil {
			t.Fatalf("fill %s: %v", path, err)
		}
	}
	if err := p.Fsync(fd); err != nil {
		t.Fatalf("fsync %s: %v", path, err)
	}
	_ = p.Close(fd)
	if err := p.Unlink(path); err != nil {
		t.Fatalf("unlink %s: %v", path, err)
	}
}
