package vm

import (
	"errors"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// withMappings runs body in a process that holds two mappings of one
// two-page file — a shared one with a dirty object page and a private
// one with a copy-on-write shadow block — on a healthy 8-page pool.
func withMappings(t testing.TB, body func(v *Pool, shared, private *mapping)) {
	t.Helper()
	const bsize = 8192
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 60 * sim.Second
	k := kernel.New(cfg)
	cache := buf.NewCache(k, 32, bsize)
	d := disk.New(k, disk.RAMDisk(128, bsize))
	d.SetCache(cache)
	if _, err := fs.Mkfs(d, 64); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	v := NewPool(k, 8, bsize)
	k.SetVM(v)
	k.Spawn("mapper", func(p *kernel.Proc) {
		f, err := fs.Mount(p.Ctx(), cache, d)
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		k.Mount("/v", f)
		fd, err := p.Open("/v/f", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		var addrs [2]int64
		for i, flags := range []int{kernel.MapShared, kernel.MapPrivate} {
			addrs[i], err = p.Mmap(fd, 0, 2*bsize, kernel.ProtRead|kernel.ProtWrite, flags)
			if err == nil {
				err = p.MemWrite(addrs[i], []byte{byte(i + 1)})
			}
			if err != nil {
				t.Errorf("mapping %d: %v", i, err)
				return
			}
		}
		if err := v.CheckInvariants(); err != nil {
			t.Errorf("healthy pool: %v", err)
			return
		}
		maps := v.space(p.Pid()).maps
		body(v, maps[0], maps[1])
	})
	// The body leaves the pool damaged, so the exit-time unmap may
	// panic or fail; the rig is done either way.
	defer func() { _ = recover() }()
	_ = k.Run()
}

// TestCatalogTrips plants one hand-made fault per name in the invariant
// catalog and requires the same-named check to report it.
func TestCatalogTrips(t *testing.T) {
	objPage := func(m *mapping) *page { return m.obj.pages[0] }
	faults := []struct {
		name  string
		plant func(v *Pool, shared, private *mapping)
	}{
		{"vm-frame-overcommit", func(v *Pool, _, _ *mapping) { v.nframes = v.resident - 1 }},
		{"vm-clock-hand", func(v *Pool, _, _ *mapping) { v.hand = &page{} }},
		// A frame whose memory went back to the free list with the hand on it.
		{"vm-clock-hand", func(v *Pool, shared, _ *mapping) {
			pg := objPage(shared)
			delete(shared.obj.pages, pg.idx)
			v.freePage(pg)
			v.hand = pg
		}},
		{"vm-frame-dup", func(v *Pool, _, _ *mapping) { v.ringTail.next = v.ringHead }},
		{"vm-frame-owner", func(v *Pool, _, _ *mapping) { v.ringAdd(&page{}) }},
		// A resident page of an object the pool table does not hold.
		{"vm-frame-owner", func(v *Pool, shared, _ *mapping) {
			objPage(shared).obj = &object{dev: "stray", pages: map[int64]*page{}}
		}},
		// A ring cut off before its pages.
		{"vm-frame-leak", func(v *Pool, _, _ *mapping) { v.ringHead = nil }},
		// A frame on the free list that its object still indexes.
		{"vm-frame-leak", func(v *Pool, shared, _ *mapping) { v.freePage(objPage(shared)) }},
		// A file page naming a block no held buffer has.
		{"vm-page-buffer", func(v *Pool, shared, _ *mapping) { objPage(shared).blk = unheldBlock }},
		{"vm-wired-count", func(v *Pool, shared, _ *mapping) { objPage(shared).wired = -1 }},
		// A shadow block another holder references too.
		{"vm-cow-isolation", func(v *Pool, _, private *mapping) { private.shadow[0].Ref() }},
		{"vm-shadow-private", func(v *Pool, shared, private *mapping) { shared.shadow = private.shadow }},
		{"vm-obj-refcount", func(v *Pool, shared, _ *mapping) { shared.obj.mappings++ }},
		{"vm-obj-leak", func(v *Pool, shared, _ *mapping) { shared.obj.mappings = 0 }},
		// A mapping of an object the pool table does not hold.
		{"vm-obj-leak", func(v *Pool, _, _ *mapping) { v.objects = nil }},
		{"vm-wok-subset", func(v *Pool, shared, _ *mapping) { shared.wok[1] = true }},
		{"vm-addr-range", func(v *Pool, shared, _ *mapping) { shared.addr = mapBase - int64(v.pageSize) }},
		// Nothing planted: the rig's own two mappings, left at drain.
		{"vm-map-leak", func(*Pool, *mapping, *mapping) {}},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			ran := false
			withMappings(t, func(v *Pool, shared, private *mapping) {
				ran = true
				if objPage(shared).blk == 0 || private.shadow[0] == nil {
					t.Error("rig: want an object page with a block and a shadow block")
					return
				}
				fault.plant(v, shared, private)
				v.gen.Bump() // a planted write is a modification
				err := v.CheckInvariants()
				if fault.name == "vm-map-leak" { // the drain-time check
					if err != nil {
						t.Errorf("CheckInvariants = %v, want nil: a live mapping is legal mid-run", err)
					}
					err = v.CheckDrained()
				}
				var ie *kernel.InvariantError
				if !errors.As(err, &ie) || ie.Name != fault.name || ie.Detail == "" {
					t.Errorf("CheckInvariants = %v, want a %s violation", err, fault.name)
				}
			})
			if !ran {
				t.Fatal("rig never reached the fault")
			}
		})
	}
}

// TestAuditReportsUnbumpedWrite: with the audit on, a page wired by hand
// without a bump is reported as the pool's.
func TestAuditReportsUnbumpedWrite(t *testing.T) {
	kernel.SetAudit(true)
	defer kernel.SetAudit(false)
	withMappings(t, func(v *Pool, shared, _ *mapping) {
		if err := v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		shared.obj.pages[0].wired++
		var ae *kernel.AuditError
		if err := v.CheckInvariants(); !errors.As(err, &ae) || ae.Owner != "vm" {
			t.Errorf("CheckInvariants = %v, want the audit to report vm", err)
		}
		shared.obj.pages[0].wired--
	})
}

// BenchmarkCatalogWalk times one full walk of the pool's catalog with a
// shared and a private mapping resident, the generation bumped before
// each.
func BenchmarkCatalogWalk(b *testing.B) {
	withMappings(b, func(v *Pool, _, _ *mapping) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.gen.Bump()
			if err := v.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
