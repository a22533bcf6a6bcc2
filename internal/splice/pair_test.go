package splice

import (
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// TestPairTraceDigests pins the full event stream (kinds, arguments and
// virtual times) of one small transfer per row of the pairing table.
// The constants were printed by this test body running against the
// four-engine implementation this pipeline replaced (commit f7749f6): a
// reordered event or a shifted charge in any pairing fails here, not
// minutes later in a kdpcheck sweep. One was regenerated since, when
// the disk began scheduling every queue C-LOOK: in "file-file
// hole+partial" the destination's writes of blocks 4, 6 and 7 wait
// behind block 5, and the drive now takes them 6, 7, 4 from the head
// instead of in arrival order. All five moved once more when idle time
// stopped counting the interrupt work done while the CPU idled (the
// cpu.idle events' arguments), and the two file sources again when a
// file read side began to emit splice.read only once it holds the
// buffer, after getblk's buf.hit or buf.miss.
func TestPairTraceDigests(t *testing.T) {
	fill := func(p *kernel.Proc, fd, n int) {
		if _, err := p.Write(fd, makeRef(n, 7)); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	cases := []struct {
		name   string
		want   uint64
		moved  int64
		splice func(m *machine, p *kernel.Proc) (src, dst int, size int64)
	}{
		{"file-file hole+partial", 0x6b71492f4556c085, 3*bsize + 1234, func(m *machine, p *kernel.Proc) (int, int, int64) {
			// Blocks 0 and 2 written, 1 a hole, 1234 bytes in block 3.
			fd, _ := p.Open("/d0/src", kernel.OCreat|kernel.ORdWr)
			fill(p, fd, bsize)
			_, _ = p.Lseek(fd, 2*bsize, kernel.SeekSet)
			fill(p, fd, bsize+1234)
			_ = p.Close(fd)
			_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OCreat|kernel.OWrOnly)
			return src, dst, EOF
		}},
		{"file-sink unaligned", 0xf87080639299967c, 3*bsize + 77, func(m *machine, p *kernel.Proc) (int, int, int64) {
			makeFile(t, p, "/d0/src", 5*bsize, 3)
			_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
			src, _ := p.Open("/d0/src", kernel.ORdOnly)
			_, _ = p.Lseek(src, 1000, kernel.SeekSet)
			pin, _ := p.Open("/dev/p2", kernel.OWrOnly)
			return src, pin, 3*bsize + 77
		}},
		{"source-sink bounded", 0xb16034d221d22f26, 12345, func(m *machine, p *kernel.Proc) (int, int, int64) {
			pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
			fill(p, pin, 20000)
			pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
			pin2, _ := p.Open("/dev/p2", kernel.OWrOnly)
			return pout, pin2, 12345
		}},
		{"source-sink to EOF", 0x29f668af19cd3e, 20000, func(m *machine, p *kernel.Proc) (int, int, int64) {
			pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
			fill(p, pin, 20000)
			_ = p.Close(pin) // ends the write side
			pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
			pin2, _ := p.Open("/dev/p2", kernel.OWrOnly)
			return pout, pin2, EOF
		}},
		{"source-file partial into old block", 0xa6056872608ca27e, 2*bsize + 500, func(m *machine, p *kernel.Proc) (int, int, int64) {
			makeFile(t, p, "/d1/dst", 3*bsize, 5)
			pin, _ := p.Open("/dev/p1", kernel.OWrOnly)
			fill(p, pin, 2*bsize+500)
			pout, _ := p.Open("/dev/p1", kernel.ORdOnly)
			dst, _ := p.Open("/d1/dst", kernel.OWrOnly)
			return pout, dst, 2*bsize + 500
		}},
	}
	for _, tc := range cases {
		m := pairMachine(t)
		pipes(m)
		m.run(t, func(p *kernel.Proc) {
			src, dst, size := tc.splice(m, p)
			dg := trace.NewDigester()
			m.k.StartTrace(dg)
			n, err := Splice(p, src, dst, size)
			m.k.StopTrace()
			if err != nil || n != tc.moved {
				t.Errorf("%s: moved %d, err %v; want %d", tc.name, n, err, tc.moved)
			}
			if got := dg.Sum(); got != tc.want {
				t.Errorf("%s: trace digest %#x, want %#x", tc.name, got, tc.want)
			}
		})
	}
}

// pairMachine is newMachine(t, disk.RZ58) put together by hand, the one
// rig internal/machine does not build (machine.TestSingleAssembler lists
// this file): the digests above fold the device name of every cache and
// disk event, they were pinned with both disks under the bare model name
// "rz58", and a machine refuses two devices of one name.
func pairMachine(t *testing.T) *machine {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 3600 * sim.Second
	k := kernel.New(cfg)
	m := &machine{k: k, cache: buf.NewCache(k, 400, bsize), fsys: make([]*fs.FS, 2)}
	for range m.fsys {
		d := disk.New(k, disk.RZ58(2048, bsize))
		d.SetCache(m.cache)
		if _, err := fs.Mkfs(d, 64); err != nil {
			t.Fatalf("mkfs: %v", err)
		}
		m.disks = append(m.disks, d)
	}
	m.mount = func(p *kernel.Proc) (err error) {
		for i, d := range m.disks {
			if m.fsys[i], err = fs.Mount(p.Ctx(), m.cache, d); err != nil {
				return err
			}
			k.Mount([]string{"/d0", "/d1"}[i], m.fsys[i])
		}
		return nil
	}
	return m
}
