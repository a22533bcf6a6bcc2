package vm

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// memFile is a Backing held in memory: each page of the file is the
// "buffer" a resident page holds, so a store lands in the file at once,
// and a test decides which page-ins fail. Block numbers are page index
// + 1.
type memFile struct {
	pages    [][]byte
	failNext bool // the next PageIn fails
	refs     int
	held     map[int64]bool // blocks a resident page holds
	pageins  map[int64]int  // PageIn calls per page index
	// pageIn, if set, runs first in every PageIn — a place to sleep, as
	// fs's PageIn can in Bread.
	pageIn func()
}

var errPageIn = errors.New("pagein failed")

func newMemFile(npages, ps int) *memFile {
	f := &memFile{held: map[int64]bool{}, pageins: map[int64]int{}}
	for i := 0; i < npages; i++ {
		f.pages = append(f.pages, bytes.Repeat([]byte{byte(i + 1)}, ps))
	}
	return f
}

func (f *memFile) MapRef(kernel.Ctx)              { f.refs++ }
func (f *memFile) MapUnref(kernel.Ctx) error      { f.refs--; return nil }
func (f *memFile) MapKey() (string, uint32)       { return "mem", 1 }
func (f *memFile) Size(kernel.Ctx) (int64, error) { return int64(len(f.pages)) * 512, nil }
func (f *memFile) Extend(kernel.Ctx, int64)       {}
func (f *memFile) PageFlush(kernel.Ctx) error     { return nil }
func (f *memFile) Close(kernel.Ctx) error         { return nil }
func (f *memFile) Read(kernel.Ctx, []byte, int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}
func (f *memFile) Write(kernel.Ctx, []byte, int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

func (f *memFile) PageIn(_ kernel.Ctx, idx int64, _ bool) (int64, bool, error) {
	if f.pageIn != nil {
		f.pageIn()
	}
	f.pageins[idx]++
	if f.failNext {
		f.failNext = false
		return 0, false, errPageIn
	}
	if f.held[idx+1] {
		panic("memFile: page held twice")
	}
	f.held[idx+1] = true
	return idx + 1, false, nil
}

func (f *memFile) PageLoad(blk int64, off int, dst []byte) { copy(dst, f.PageBuffer(blk)[off:]) }

func (f *memFile) PageStore(_ kernel.Ctx, blk int64, off int, src []byte) bool {
	copy(f.pages[blk-1][off:], src)
	return false
}

func (f *memFile) PageRelease(_ kernel.Ctx, blk int64, _ bool) {
	if !f.held[blk] {
		panic("memFile: release of a page not held")
	}
	delete(f.held, blk)
}

func (f *memFile) PageBuffer(blk int64) []byte {
	if f.held[blk] {
		return f.pages[blk-1]
	}
	return nil
}

// TestRecycledFramesAgainstModel drives a four-frame pool over a
// twelve-page file with seeded random loads and stores through a shared
// and a private mapping, failed page-ins, unmaps and remaps — beside a
// plain copy of the file and of the private mapping's view. Every access
// must read what the reference holds although every page record has
// been through many pages, the invariant catalog must hold after every
// step, and every copy-on-write block must go back with its mapping.
func TestRecycledFramesAgainstModel(t *testing.T) {
	const (
		ps     = 512
		npages = 12
		frames = 4
	)
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := kernel.DefaultConfig()
		cfg.MaxRunTime = 600 * sim.Second
		k := kernel.New(cfg)
		v := NewPool(k, frames, ps)
		k.SetVM(v)
		r := sim.NewRand(seed)
		f := newMemFile(npages, ps)
		file := make([]byte, npages*ps) // the reference: what the file holds, mapped stores included
		for i := range file {
			file[i] = byte(r.Intn(256))
		}
		for i := range f.pages {
			copy(f.pages[i], file[i*ps:])
		}
		failed, cows := 0, 0
		k.Spawn("model", func(p *kernel.Proc) {
			fd := p.InstallFile(f, kernel.ORdWr)
			var shared, private int64
			var view []byte  // the private mapping's reference
			var cowed []bool // pages the private mapping has copied
			// unmap unmaps both mappings and requires that each copy-on-write
			// block the private one held went back with it: no reference is
			// left.
			unmap := func(step int) {
				blocks := slices.DeleteFunc(slices.Clone(v.findMapping(p.Pid(), private, 1).shadow), func(b *sim.Block) bool { return b == nil })
				if err := errors.Join(p.Munmap(private), p.Munmap(shared)); err != nil {
					t.Fatalf("seed %d step %d: munmap: %v", seed, step, err)
				}
				for _, b := range blocks {
					if b.Ref(); !b.Drop() {
						t.Fatalf("seed %d step %d: a copy-on-write block outlived its mapping", seed, step)
					}
				}
				cows += len(blocks)
			}
			remap := func() {
				var err error
				if shared, err = p.Mmap(fd, 0, npages*ps, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared); err != nil {
					t.Fatalf("mmap shared: %v", err)
				}
				if private, err = p.Mmap(fd, 0, npages*ps, kernel.ProtRead|kernel.ProtWrite, kernel.MapPrivate); err != nil {
					t.Fatalf("mmap private: %v", err)
				}
				view, cowed = make([]byte, npages*ps), make([]bool, npages)
			}
			// ref is what the private mapping shows for a page: its own
			// copy once it has one, the file's page until then.
			ref := func(pg int) []byte {
				if cowed[pg] {
					return view[pg*ps : (pg+1)*ps]
				}
				return file[pg*ps : (pg+1)*ps]
			}
			remap()
			buf := make([]byte, ps)
			for step := 0; step < 1500; step++ {
				pg := r.Intn(npages)
				off := int64(pg * ps)
				failing := r.Intn(10) == 0
				f.failNext = failing
				var err error
				switch op := r.Intn(9); {
				case op < 3:
					if err = p.MemRead(shared+off, buf); err == nil && !bytes.Equal(buf, file[off:off+ps]) {
						t.Fatalf("seed %d step %d: shared page %d reads %x..., file holds %x...", seed, step, pg, buf[:8], file[off:off+8])
					}
				case op < 5:
					if err = p.MemRead(private+off, buf); err == nil && !bytes.Equal(buf, ref(pg)) {
						t.Fatalf("seed %d step %d: private page %d reads %x..., reference %x...", seed, step, pg, buf[:8], ref(pg)[:8])
					}
				case op < 7:
					b := byte(r.Intn(256))
					if err = p.MemWrite(shared+off+7, []byte{b}); err == nil {
						file[off+7] = b
					}
				case op == 7:
					b := byte(r.Intn(256))
					if err = p.MemWrite(private+off+9, []byte{b}); err == nil {
						if !cowed[pg] {
							copy(view[off:], file[off:off+ps])
							cowed[pg] = true
						}
						view[off+9] = b
					}
				case op == 8 && r.Intn(20) == 0:
					unmap(step)
					if v.resident != 0 || v.hand != nil {
						t.Fatalf("seed %d step %d: %d frames resident, hand %v after the last unmap", seed, step, v.resident, v.hand)
					}
					for i := range f.pages { // every store landed in the file itself
						if !bytes.Equal(f.pages[i], file[i*ps:(i+1)*ps]) {
							t.Fatalf("seed %d step %d: page %d never reached the file", seed, step, i)
						}
					}
					if len(f.held) != 0 {
						t.Fatalf("seed %d step %d: the last unmap left %d pages held", seed, step, len(f.held))
					}
					remap()
				}
				f.failNext = false
				switch {
				case err == nil:
				case failing && err == errPageIn:
					failed++
				default:
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if err := v.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			unmap(-1)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := v.CheckDrained(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cows == 0 || f.refs != 0 {
			t.Fatalf("seed %d: %d copy-on-write copies made; backing refs %d", seed, cows, f.refs)
		}
		if failed < 20 {
			t.Fatalf("seed %d: only %d page-ins failed: the error path was not exercised", seed, failed)
		}
	}
}
