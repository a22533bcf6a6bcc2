package vm

import "kdp/internal/kernel"

// This file implements the VM invariant checker used by the simcheck
// harness. The checks are structural — they walk the page pool, the
// objects and the address spaces without doing I/O or sleeping — so
// they are callable from any context, including the kernel's
// scheduling loop between events.
//
// Invariant catalog (virtual memory):
//
//	vm-frame-overcommit  resident pages never exceed the pool's cap
//	vm-clock-hand        the clock hand rests on a page of the ring (or
//	                     past its newest page)
//	vm-frame-dup         a page frame appears in the ring exactly once
//	vm-frame-owner       every ring page is a file page its object
//	                     indexes under the right key
//	vm-frame-leak        the objects' resident pages account for every
//	                     frame in the ring — no leaked and no unlisted
//	                     frames
//	vm-page-buffer       a resident file page's block has a held,
//	                     hashed cache buffer: the page's memory
//	vm-wired-count       wire counts are never negative
//	vm-cow-isolation     a shadow block is referenced by its slot alone
//	                     (COW means private)
//	vm-shadow-private    only private mappings carry shadow blocks
//	vm-obj-refcount      object.mappings equals the live mappings of it
//	vm-obj-leak          an object with zero mappings has been freed
//	vm-wok-subset        write-enabled pages are a subset of entered
//	                     pages in every mapping
//	vm-addr-range        every mapping lies within its space's
//	                     allocated address range

// stamp is a per-pass tally kept on the checked object itself, so a
// pass builds no set: n counts sightings during pass number pass, and a
// stamp left by an earlier pass reads as zero.
type stamp struct {
	pass uint64
	n    int
}

func (s *stamp) add(pass uint64) {
	if s.pass != pass {
		*s = stamp{pass: pass}
	}
	s.n++
}

func (s *stamp) count(pass uint64) int {
	if s.pass != pass {
		return 0
	}
	return s.n
}

// CheckInvariants verifies the pool's structural invariants, returning
// the first violation found (nil if consistent). It never sleeps,
// performs no I/O and allocates nothing, so the simcheck probe can run
// it at every scheduling boundary; spaces, objects and frames are
// visited in first-mmap, first-mapping and clock order. It walks when
// the pool's generation moved since its last passing walk (kernel.Gen).
// vm-page-buffer also reads which of the cache's buffers are held, but
// that changes only through this pool's PageIn and PageRelease calls,
// which bump it; the audit's digest holds that to account.
func (v *Pool) CheckInvariants() error {
	return v.gen.Check("vm", 0, v.check, v.digest)
}

func (v *Pool) check() error {
	if v.resident > v.nframes {
		return kernel.Violation("vm-frame-overcommit", "%d resident pages in a %d-frame pool", v.resident, v.nframes)
	}
	if v.hand != nil && !v.hand.inRing {
		return kernel.Violation("vm-clock-hand", "hand rests on page idx=%d, which is not in the ring", v.hand.idx)
	}
	v.ckPass++
	pass := v.ckPass

	// Stamp every object in the pool table, so that below a current
	// stamp proves table membership without a lookup.
	for _, obj := range v.objects {
		obj.ck = stamp{pass: pass}
	}

	// Validate the per-mapping structures, tallying on each object the
	// mappings that refer to it.
	for _, as := range v.spaces {
		pid := as.pid
		for _, m := range as.maps {
			if m.addr < mapBase || m.addr+m.npages*int64(v.pageSize) > as.brk {
				return kernel.Violation("vm-addr-range", "pid %d mapping at %#x..%#x outside space range", pid, m.addr, m.addr+m.npages*int64(v.pageSize))
			}
			if m.obj.ck.pass != pass {
				return kernel.Violation("vm-obj-leak", "pid %d maps object %s/%d, which is not in the pool table", pid, m.obj.dev, m.obj.ino)
			}
			m.obj.ck.add(pass)
			for i, entered := range m.valid {
				if m.wok[i] && !entered {
					return kernel.Violation("vm-wok-subset", "pid %d mapping at %#x: page %d write-enabled but not entered", pid, m.addr, m.pgoff+int64(i))
				}
			}
			for i, b := range m.shadow {
				if b == nil {
					continue
				}
				if !m.private() {
					return kernel.Violation("vm-shadow-private", "pid %d shared mapping at %#x has a shadow block", pid, m.addr)
				}
				if b.Shared() {
					return kernel.Violation("vm-cow-isolation", "pid %d shadow block of page %d has another holder", pid, m.pgoff+int64(i))
				}
			}
		}
	}

	// Object-side accounting.
	resident := 0
	for _, obj := range v.objects {
		if obj.mappings <= 0 {
			return kernel.Violation("vm-obj-leak", "object %s/%d alive with %d mappings", obj.dev, obj.ino, obj.mappings)
		}
		if refs := obj.ck.count(pass); refs != obj.mappings {
			return kernel.Violation("vm-obj-refcount", "object %s/%d says %d mappings, address spaces hold %d", obj.dev, obj.ino, obj.mappings, refs)
		}
		if v.object(obj.dev, obj.ino) != obj {
			return kernel.Violation("vm-frame-owner", "object %s/%d is in the pool table twice", obj.dev, obj.ino)
		}
		resident += len(obj.pages)
	}

	// Ring walk: ownership, duplicates, file pages' memory.
	ring := 0
	for pg := v.ringHead; pg != nil; pg = pg.next {
		ring++
		if pg.ckRing == pass {
			return kernel.Violation("vm-frame-dup", "page (obj=%v idx=%d) in ring twice", pg.obj != nil, pg.idx)
		}
		pg.ckRing = pass
		if pg.wired < 0 {
			return kernel.Violation("vm-wired-count", "page idx=%d wired=%d", pg.idx, pg.wired)
		}
		if pg.obj == nil {
			return kernel.Violation("vm-frame-owner", "page idx=%d in the ring belongs to no object", pg.idx)
		}
		if pg.obj.ck.pass != pass || pg.obj.pages[pg.idx] != pg {
			return kernel.Violation("vm-frame-owner", "object page %s/%d idx=%d not indexed by its object", pg.obj.dev, pg.obj.ino, pg.idx)
		}
		if pg.blk != 0 && pg.obj.backing.PageBuffer(pg.blk) == nil {
			return kernel.Violation("vm-page-buffer", "page %s/%d idx=%d names block %d, which no held buffer has", pg.obj.dev, pg.obj.ino, pg.idx, pg.blk)
		}
	}
	if resident != ring || ring != v.resident {
		return kernel.Violation("vm-frame-leak", "objects hold %d pages but %d frames in ring, %d counted resident", resident, ring, v.resident)
	}
	return nil
}

// digest folds in what check reads.
func (v *Pool) digest(d *kernel.Digest) {
	d.Int(int64(v.resident))
	d.Int(int64(v.nframes))
	kernel.Ptr(d, v.hand)
	if v.hand != nil {
		d.Bool(v.hand.inRing)
	}
	for _, obj := range v.objects {
		kernel.Ptr(d, obj)
		d.Int(int64(obj.mappings))
		d.Int(int64(len(obj.pages)))
		d.Bool(v.object(obj.dev, obj.ino) == obj)
	}
	for _, as := range v.spaces {
		d.Int(as.brk)
		for _, m := range as.maps {
			d.Int(m.addr)
			d.Int(m.npages)
			d.Bool(m.private())
			kernel.Ptr(d, m.obj)
			for i := range m.valid {
				d.Bool(m.valid[i])
				d.Bool(m.wok[i])
			}
			for _, b := range m.shadow {
				if kernel.Ptr(d, b); b != nil {
					d.Bool(b.Shared())
				}
			}
		}
	}
	for pg := v.ringHead; pg != nil; pg = pg.next {
		kernel.Ptr(d, pg)
		d.Int(int64(pg.wired))
		d.Int(pg.idx)
		if kernel.Ptr(d, pg.obj); pg.obj != nil {
			kernel.Ptr(d, pg.obj.pages[pg.idx])
			d.Int(pg.blk)
			if pg.blk != 0 {
				d.Bool(pg.obj.backing.PageBuffer(pg.blk) == nil)
			}
		}
	}
}

// CheckDrained verifies the quiescent end-of-run state: every mapping
// unmapped, every object released, every frame free. Address spaces of
// still-live processes may exist, but must be empty.
func (v *Pool) CheckDrained() error {
	for _, as := range v.spaces {
		if n := len(as.maps); n > 0 {
			return kernel.Violation("vm-map-leak", "pid %d still holds %d mappings at drain", as.pid, n)
		}
	}
	if n := len(v.objects); n > 0 {
		return kernel.Violation("vm-obj-leak", "%d objects alive at drain", n)
	}
	if n := v.resident; n > 0 {
		return kernel.Violation("vm-frame-leak", "%d frames resident at drain", n)
	}
	return v.CheckInvariants()
}
