package vm

import (
	"bytes"
	"errors"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// memFile is a Backing held in memory, so a test decides which page-ins
// fail. Block numbers are page index + 1.
type memFile struct {
	pages    [][]byte
	failNext bool // the next PageIn scribbles on half the frame, then fails
	refs     int
	// pageOut, if set, runs first in every PageOut — a place to sleep,
	// as fs's PageOut can in getblk.
	pageOut func(ctx kernel.Ctx)
}

var errPageIn = errors.New("pagein failed")

func (f *memFile) MapRef(kernel.Ctx)              { f.refs++ }
func (f *memFile) MapUnref(kernel.Ctx) error      { f.refs--; return nil }
func (f *memFile) MapKey() (string, uint32)       { return "mem", 1 }
func (f *memFile) Size(kernel.Ctx) (int64, error) { return int64(len(f.pages)) * 512, nil }
func (f *memFile) Extend(kernel.Ctx, int64)       {}
func (f *memFile) PageFlush(kernel.Ctx) error     { return nil }
func (f *memFile) Sync(kernel.Ctx) error          { return nil }
func (f *memFile) Close(kernel.Ctx) error         { return nil }
func (f *memFile) Read(kernel.Ctx, []byte, int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}
func (f *memFile) Write(kernel.Ctx, []byte, int64) (int, error) {
	return 0, kernel.ErrOpNotSupp
}

func (f *memFile) PageIn(_ kernel.Ctx, idx int64, dst []byte, _ bool) (int64, bool, error) {
	if f.failNext {
		f.failNext = false
		for i := range dst[:len(dst)/2] {
			dst[i] = 0xEE
		}
		return 0, false, errPageIn
	}
	copy(dst, f.pages[idx])
	return idx + 1, false, nil
}

func (f *memFile) PageOut(ctx kernel.Ctx, blk int64, src []byte) error {
	if f.pageOut != nil {
		f.pageOut(ctx)
	}
	copy(f.pages[blk-1], src)
	return nil
}

// TestRecycledFramesAgainstModel drives a four-frame pool over a
// twelve-page file with seeded random loads and stores through a shared
// and a private mapping, failed page-ins (which hand back a frame they
// half filled), unmaps and remaps — beside a plain copy of the file and
// of the private mapping's view. Every access must read what the
// reference holds although every frame has been through many pages, the
// invariant catalog must hold after every step, and the pool must never
// own more frame memory than it has frames.
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
		f := &memFile{}
		file := make([]byte, npages*ps) // the reference: what the file holds, mapped stores included
		for i := range file {
			file[i] = byte(r.Intn(256))
		}
		for i := 0; i < npages; i++ {
			f.pages = append(f.pages, bytes.Clone(file[i*ps:(i+1)*ps]))
		}
		seen := map[*byte]bool{} // every frame memory the pool ever used
		failed := 0
		k.Spawn("model", func(p *kernel.Proc) {
			fd := p.InstallFile(f, kernel.ORdWr)
			var shared, private int64
			var view []byte  // the private mapping's reference
			var cowed []bool // pages the private mapping has copied
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
				case op == 7 && v.resident < frames: // anonymous pages are never evicted: keep them few
					b := byte(r.Intn(256))
					if err = p.MemWrite(private+off+9, []byte{b}); err == nil {
						if !cowed[pg] {
							copy(view[off:], file[off:off+ps])
							cowed[pg] = true
						}
						view[off+9] = b
					}
				case op == 8 && r.Intn(20) == 0:
					if err := errors.Join(p.Munmap(private), p.Munmap(shared)); err != nil {
						t.Fatalf("seed %d step %d: munmap: %v", seed, step, err)
					}
					if v.resident != 0 || v.hand != nil {
						t.Fatalf("seed %d step %d: %d frames resident, hand %v after the last unmap", seed, step, v.resident, v.hand)
					}
					for i := range f.pages { // the last unmap paged every dirty page out
						if !bytes.Equal(f.pages[i], file[i*ps:(i+1)*ps]) {
							t.Fatalf("seed %d step %d: page %d never reached the file", seed, step, i)
						}
					}
					remap()
				}
				f.failNext = false
				switch {
				case err == nil:
				case failing && err == errPageIn:
					failed++
				case err == kernel.ErrNoMem: // every frame anonymous or wired
				default:
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if err := v.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				for pg := v.ringHead; pg != nil; pg = pg.next {
					seen[&pg.data[0]] = true
				}
				for pg := v.free; pg != nil; pg = pg.next {
					seen[&pg.data[0]] = true
				}
			}
			if err := errors.Join(p.Munmap(private), p.Munmap(shared)); err != nil {
				t.Fatal(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := v.CheckDrained(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(seen) != frames || f.refs != 0 {
			t.Fatalf("seed %d: the pool used %d frame memories for %d frames; backing refs %d", seed, len(seen), frames, f.refs)
		}
		if failed < 20 {
			t.Fatalf("seed %d: only %d page-ins failed: the error path was not exercised", seed, failed)
		}
	}
}
