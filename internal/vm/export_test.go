package vm

import (
	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// WriteFault takes the fault a store to addr would take and stops short
// of the store — a state no schedule reaches (the fault's charges are
// kernel-mode, not preemptible) but the born-dirty rule is written for.
func (v *Pool) WriteFault(p *kernel.Proc, addr int64) error {
	m := v.findMapping(p.Pid(), addr, 1)
	if m == nil {
		return kernel.ErrInval
	}
	pg, err := v.fault(p, m, m.pgoff+(addr-m.addr)/int64(v.pageSize), true)
	if pg != nil {
		v.unwire(pg)
	}
	return err
}

// PageData returns the memory of the object page that p's mapping
// shows at addr, nil if it is not resident.
func (v *Pool) PageData(p *kernel.Proc, addr int64) []byte {
	m := v.findMapping(p.Pid(), addr, 1)
	if m == nil {
		return nil
	}
	if pg := m.obj.pages[m.pgoff+(addr-m.addr)/int64(v.pageSize)]; pg != nil {
		return pg.obj.backing.PageBuffer(pg.blk)
	}
	return nil
}

// PageWired reports whether the object page p's mapping shows at addr
// is resident and wired or busy: a fault is using it.
func (v *Pool) PageWired(p *kernel.Proc, addr int64) bool {
	m := v.findMapping(p.Pid(), addr, 1)
	if m == nil {
		return false
	}
	pg := m.obj.pages[m.pgoff+(addr-m.addr)/int64(v.pageSize)]
	return pg != nil && (pg.wired > 0 || pg.busy)
}

// Shadow returns the copy-on-write copy p's mapping holds for the page
// at addr, nil if it holds none.
func (v *Pool) Shadow(p *kernel.Proc, addr int64) *sim.Block {
	m := v.findMapping(p.Pid(), addr, 1)
	if m == nil || !m.private() {
		return nil
	}
	return m.shadow[(addr-m.addr)/int64(v.pageSize)]
}

// unheldBlock is a block past the end of any test device, so no buffer
// holds it.
const unheldBlock = 1 << 40

// Damage corrupts the pool's structures for invariant self-tests — this
// package's, and machine_test.go's proof that machine.CheckInvariants
// reaches the pool (an external test package sees this file). The
// kinds mirror the catalog: "ring-orphan" plants an unowned frame,
// "page-buffer" makes a file page name a block no held buffer has,
// "hand" pushes the clock hand out of range, "refcount" skews an
// object's mapping count. The returned function undoes the plant, so a
// test can go on to tear its mappings down on a healthy pool.
func (v *Pool) Damage(kind string) (undo func()) {
	defer v.gen.Bump() // a planted write is a modification
	switch kind {
	case "ring-orphan":
		return v.plantOrphan()
	case "page-buffer":
		// page-buffer needs a file page; a pool without one gets an
		// orphan frame instead:
		for _, obj := range v.objects {
			for _, pg := range obj.pages {
				blk := pg.blk
				pg.blk = unheldBlock
				return func() { pg.blk = blk; v.gen.Bump() }
			}
		}
		return v.plantOrphan()
	case "hand":
		hand := v.hand
		v.hand = &page{}
		return func() { v.hand = hand; v.gen.Bump() }
	case "refcount":
		for _, obj := range v.objects {
			obj.mappings++
			return func() { obj.mappings--; v.gen.Bump() }
		}
		return func() {}
	default:
		panic("vm: unknown damage kind " + kind)
	}
}

func (v *Pool) plantOrphan() (undo func()) {
	pg := &page{}
	v.ringAdd(pg)
	return func() { v.freePage(pg); v.gen.Bump() }
}
