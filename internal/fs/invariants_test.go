package fs

import (
	"errors"
	"testing"
	"unsafe"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
)

// withOpenFiles runs body with two three-block files held open, so two
// inodes with block pointers are in core; a and b are those inodes.
func withOpenFiles(t testing.TB, body func(f *FS, a, b *Inode)) {
	t.Helper()
	r := newRig(t, 512)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		var files [2]kernel.FileOps
		for i, path := range []string{"/a", "/b"} {
			fl, err := f.OpenFile(ctx, path, kernel.OCreat|kernel.ORdWr)
			if err == nil {
				_, err = fl.Write(ctx, pattern(3*testBlockSize, byte(i)), 0)
			}
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			files[i] = fl
		}
		if err := f.CheckLive(); err != nil {
			t.Errorf("healthy filesystem: %v", err)
			return
		}
		n := len(f.live)
		body(f, f.live[n-2], f.live[n-1])
		for _, fl := range files {
			_ = fl.Close(ctx)
		}
	})
}

// TestCatalogTrips plants one hand-made fault per name in the live
// invariant catalog and requires the same-named check to report it; the
// fault is undone afterwards so the files close cleanly.
func TestCatalogTrips(t *testing.T) {
	faults := []struct {
		name  string
		plant func(f *FS, a, b *Inode)
	}{
		{"fs-inode-key", func(f *FS, a, b *Inode) { f.inodes[a.ino] = b }},
		{"fs-inode-refs", func(f *FS, a, b *Inode) { a.refs = -1 }},
		{"fs-inode-mode", func(f *FS, a, b *Inode) { a.mode = 0x7777 }},
		{"fs-inode-size", func(f *FS, a, b *Inode) { a.size = -1 }},
		{"fs-ptr-bounds", func(f *FS, a, b *Inode) { a.direct[1] = f.sb.TotalBlocks }},
		{"fs-ptr-dup", func(f *FS, a, b *Inode) { b.indir = a.direct[0] }},
		{"fs-super-counts", func(f *FS, a, b *Inode) { f.sb.FreeBlocks = f.sb.TotalBlocks }},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			ran := false
			withOpenFiles(t, func(f *FS, a, b *Inode) {
				ran = true
				savedA, savedB, savedSB := *a, *b, f.sb
				fault.plant(f, a, b)
				f.gen.Bump() // a planted write is a modification
				err := f.CheckLive()
				if kernel.ViolationName(err) != fault.name {
					t.Errorf("CheckLive = %v, want a %s violation", err, fault.name)
				}
				*a, *b, f.sb = savedA, savedB, savedSB
				f.inodes[a.ino] = a
				f.gen.Bump()
				if err := f.CheckLive(); err != nil {
					t.Errorf("after undoing the fault: %v", err)
				}
			})
			if !ran {
				t.Fatal("rig never reached the fault")
			}
		})
	}
}

// TestCheckLiveAllocatesNothing: once its scratch exists, a passing
// pass allocates nothing — it runs at every scheduling boundary of a
// simcheck machine.
func TestCheckLiveAllocatesNothing(t *testing.T) {
	withOpenFiles(t, func(f *FS, a, b *Inode) {
		if n := testing.AllocsPerRun(100, func() {
			if err := f.CheckLive(); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("CheckLive allocates %v times per passing pass, want 0", n)
		}
	})
}

// TestInodeSize: the in-core inode, its embedded on-disk image included,
// stays 128 bytes, one allocation size class below the 144 a careless
// field order costs on every iget.
func TestInodeSize(t *testing.T) {
	if n := unsafe.Sizeof(Inode{}); n != 128 {
		t.Errorf("Inode is %d bytes, want 128", n)
	}
}

// TestSizeClasses: the other per-machine records the generation rule
// and the touched walk widened stay within their sizes — the disk in 312
// bytes (its platter is one slice of block references, its fault sites
// two records), the cache in 192
// (its touched set and shadow live behind one pointer; both count in the
// trace, not in fields) — and a buffer header in 176 (the touched walk's
// slot and stamp fill padding; the block reference took b_resid's
// place, which nothing read).
func TestSizeClasses(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"disk.Disk", unsafe.Sizeof(disk.Disk{}), 312},
		{"buf.Cache", unsafe.Sizeof(buf.Cache{}), 192},
		{"buf.Buf", unsafe.Sizeof(buf.Buf{}), 176},
	} {
		if r.size > r.max {
			t.Errorf("%s is %d bytes, want at most %d", r.name, r.size, r.max)
		}
	}
}

// TestAuditReportsUnbumpedWrite: with the audit on, an in-core inode's
// size moved by hand without a bump is reported as the filesystem's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	withOpenFiles(t, func(f *FS, a, b *Inode) {
		if err := f.CheckLive(); err != nil {
			t.Fatal(err)
		}
		a.size++
		var ae *kernel.AuditError
		if err := f.CheckLive(); !errors.As(err, &ae) || ae.Owner != "fs" {
			t.Errorf("CheckLive = %v, want the audit to report fs", err)
		}
		a.size--
	})
}

// BenchmarkCatalogWalk times one full walk of CheckLive with two open
// three-block files, the generation bumped before each.
func BenchmarkCatalogWalk(b *testing.B) {
	withOpenFiles(b, func(f *FS, _, _ *Inode) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.gen.Bump()
			if err := f.CheckLive(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
