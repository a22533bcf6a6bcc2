package fs

import (
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// entriesNamed counts the entries called name in directory dir.
func entriesNamed(t *testing.T, ctx kernel.Ctx, f *FS, dir, name string) int {
	t.Helper()
	dp, err := f.namei(ctx, dir)
	if err != nil {
		t.Fatalf("namei %s: %v", dir, err)
	}
	defer f.iput(ctx, dp)
	bsize := int64(f.sb.BlockSize)
	n := 0
	for lblk := int64(0); lblk*bsize < dp.size; lblk++ {
		pblk, _, err := dp.bmap(ctx, lblk, false, false)
		if err != nil || pblk == 0 {
			t.Fatalf("bmap %s block %d: %d %v", dir, lblk, pblk, err)
		}
		b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
		if err != nil {
			t.Fatalf("bread: %v", err)
		}
		for off := lblk * bsize; off < dp.size && off < (lblk+1)*bsize; off += DirentSize {
			if de := decodeDirent(b.Data[off%bsize:]); de.Ino != 0 && de.Name == name {
				n++
			}
		}
		f.cache.Brelse(ctx, b)
	}
	return n
}

// TestConcurrentCreateEntersOneName: two processes create one name at
// once on an RZ58, where ialloc's synchronous inode write sleeps between
// each creator's lookup and its entry. The name is entered once: the
// loser of an O_CREAT open opens the winner's file, the loser of a
// Mkdir gets ErrExist, and each loser's new inode is freed again.
func TestConcurrentCreateEntersOneName(t *testing.T) {
	r := newSlowRig(t, 512)
	var freeInodes uint32
	r.run(t, func(p *kernel.Proc, f *FS) { freeInodes = f.sb.FreeInodes })
	f := r.fsy

	var files [2]*File
	var mkdirErr [2]error
	for i := range files {
		r.k.Spawn("creator", func(p *kernel.Proc) {
			fo, err := f.OpenFile(p.Ctx(), "/x", kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Errorf("creator %d: open: %v", i, err)
				return
			}
			files[i] = fo.(*File)
			mkdirErr[i] = f.Mkdir(p.Ctx(), "/d")
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}

	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		if files[0] == nil || files[1] == nil {
			return
		}
		if a, b := files[0].ip.ino, files[1].ip.ino; a != b {
			t.Errorf("the two opens of /x hold inodes %d and %d, want one", a, b)
		}
		if n := entriesNamed(t, ctx, f, "/", "x"); n != 1 {
			t.Errorf("root has %d entries named x, want 1", n)
		}
		if n := entriesNamed(t, ctx, f, "/", "d"); n != 1 {
			t.Errorf("root has %d entries named d, want 1", n)
		}
		if (mkdirErr[0] == nil) == (mkdirErr[1] == nil) || mkdirErr[0] != nil && mkdirErr[0] != kernel.ErrExist ||
			mkdirErr[1] != nil && mkdirErr[1] != kernel.ErrExist {
			t.Errorf("mkdir errors %v and %v, want nil and ErrExist", mkdirErr[0], mkdirErr[1])
		}
		for _, fl := range files {
			if err := fl.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
		}
		if got := f.sb.FreeInodes; got != freeInodes-2 {
			t.Errorf("%d free inodes after creating /x and /d, want %d", got, freeInodes-2)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatal(err)
		}
		if rep, err := Fsck(ctx, r.c, r.d); err != nil || !rep.Clean() {
			t.Errorf("fsck: %v %v", err, rep.Problems)
		}
	})
}

// TestCreateReadsEachMetadataBlockOnce: a create into a directory of
// 100 entries, with the inode rotor back at the start of the table as
// a mount leaves it, so ialloc scans past 100 allocated inodes in two
// inode-table blocks. Each pass reads each block it needs once: the
// open's lookup (the root's inode and directory block), create's
// lookup (the same two), ialloc (both table blocks), dirEnter (the
// directory block it appends to) and the directory's inode write (its
// table block) — 8 lookups, where reading per inode and per entry took
// 207.
func TestCreateReadsEachMetadataBlockOnce(t *testing.T) {
	r := newRig(t, 1024)
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for i := 0; i < 100; i++ {
			fl := openF(t, ctx, f, "/f"+string(rune('a'+i%26))+string(rune('0'+i/26)), kernel.OCreat|kernel.ORdWr)
			if err := fl.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
		f.inoRotor = RootIno + 1
		before := r.lookups()
		fl := openF(t, ctx, f, "/new", kernel.OCreat|kernel.ORdWr)
		if n := r.lookups() - before; n != 8 {
			t.Errorf("create: %d cache lookups, want 8", n)
		}
		if fl.ip.ino != 102 {
			t.Errorf("create took inode %d, want 102: the first past the 100 allocated", fl.ip.ino)
		}
	})
}

// TestStaggeredCreatesKeepBothNames: a second create of another name
// starts at every instant, a millisecond apart, of a first one on an
// RZ58. Whatever the second's unlocked lookup saw, both names end up
// entered: a lookup that ran while the first appended its entry must
// find the directory's mods count moved.
func TestStaggeredCreatesKeepBothNames(t *testing.T) {
	for delay := sim.Duration(0); delay < 80*sim.Millisecond; delay += sim.Millisecond {
		r := newSlowRig(t, 512)
		r.run(t, func(p *kernel.Proc, f *FS) {})
		f := r.fsy
		for i, name := range []string{"/a", "/b"} {
			r.k.Spawn("creator", func(p *kernel.Proc) {
				if i == 1 {
					p.SleepFor(delay)
				}
				fo, err := f.OpenFile(p.Ctx(), name, kernel.OCreat|kernel.ORdWr)
				if err != nil {
					t.Errorf("delay %v: open %s: %v", delay, name, err)
					return
				}
				_ = fo.Close(p.Ctx())
			})
		}
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		r.run(t, func(p *kernel.Proc, f *FS) {
			for _, name := range []string{"a", "b"} {
				if n := entriesNamed(t, p.Ctx(), f, "/", name); n != 1 {
					t.Errorf("second create %v after the first: root has %d entries named %s, want 1", delay, n, name)
				}
			}
		})
	}
}
