package simcheck

import (
	"bytes"
	"testing"

	"kdp/internal/kernel"
)

// FuzzImage runs a program of stores, shares, replacements and overlays
// over two images and holds each against a flat []byte kept the plain
// way. A share of one image into the other is the oracle's durable
// snapshot (markDurable) or its crash restore (postCrashOracle), a
// replacement is doPipeSplice's, and an overlay is a file-to-file
// splice's; a store into either image must never show in the other, and
// after every step each block has exactly the references of the slots
// that hold it (oracle-block-refs). Every byte of the program is
// consumed as it is read, and a program that runs out mid-op ends there.
func FuzzImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		// Offsets and lengths reach six blocks, so stores cross block
		// boundaries and leave gaps past the end of the file.
		span := func(limit int) int { return (next()<<8 | next()) % limit }
		m := &machine{oracle: map[string]*ofile{"0": {}, "1": {}}}
		defer m.giveBack()
		ims := [2]*image{&m.oracle["0"].data, &m.oracle["1"].data}
		var refs [2][]byte
		zeros := make([]byte, 2*blockSize)
		for step := 0; len(prog) > 0; step++ {
			op := next()
			i := op >> 2 & 1
			switch {
			case op%3 == 0: // store
				off, n := span(6*blockSize), span(2*blockSize+1)
				p := pattern(make([]byte, n), int64(off), byte(next()))
				ims[i].write(off, p)
				if len(refs[i]) < off+n {
					refs[i] = append(refs[i], make([]byte, off+n-len(refs[i]))...)
				}
				copy(refs[i][off:], p)
			case op%3 == 1: // share i into the other
				ims[i].share(ims[1-i])
				refs[1-i] = bytes.Clone(refs[i])
			case op>>3&1 == 0: // replace
				n := span(4 * blockSize)
				p := pattern(make([]byte, n), 0, byte(next()))
				refs[i] = bytes.Clone(p)
				ims[i].release()
				ims[i].write(0, p)
			default: // overlay the other's prefix on i
				n := min(span(4*blockSize+1), ims[1-i].size)
				ims[i].overlay(ims[1-i], n)
				if len(refs[i]) < n {
					refs[i] = append(refs[i], make([]byte, n-len(refs[i]))...)
				}
				copy(refs[i], refs[1-i][:n])
			}
			for j := range ims {
				im, ref := ims[j], refs[j]
				if im.size != len(ref) {
					t.Fatalf("step %d: image %d has size %d, want %d", step, j, im.size, len(ref))
				}
				if k := im.diff(0, ref); k >= 0 {
					t.Fatalf("step %d: image %d byte %d is %#02x, want %#02x", step, j, k, im.span(k)[0], ref[k])
				}
				if k := im.diff(len(ref), zeros); k >= 0 {
					t.Fatalf("step %d: image %d byte %d past its size is %#02x", step, j, len(ref)+k, im.span(len(ref) + k)[0])
				}
			}
			if err := m.checkOracleRefs(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// TestImageStoreAllocatesNothing is the image's allocation budget: a
// store into blocks the image owns allocates nothing, nor does a store
// after a share while the recycler is warm; that store copies the blocks
// it touches and leaves the others shared.
func TestImageStoreAllocatesNothing(t *testing.T) {
	p := pattern(make([]byte, 3*blockSize), 0, 7)
	var im, snap image
	defer im.release()
	defer snap.release()
	im.write(100, p)
	if n := testing.AllocsPerRun(100, func() {
		im.write(100, p)
		im.write(5000, p[:2*blockSize])
	}); n != 0 {
		t.Errorf("a store into owned blocks allocated %v times, want 0", n)
	}
	// Each share gives back the last snapshot's blocks, the block the
	// store before it copied among them, for the next store to draw.
	if n := testing.AllocsPerRun(100, func() {
		im.share(&snap)
		im.write(0, p[:10])
	}); n != 0 {
		t.Errorf("a store after a share allocated %v times, want 0", n)
	}
	q := pattern(make([]byte, 10), 0, 9)
	im.share(&snap)
	im.write(0, q)
	if im.blocks[0] == snap.blocks[0] {
		t.Error("a store after a share wrote the shared block")
	}
	for b := 1; b < len(im.blocks); b++ {
		if im.blocks[b] != snap.blocks[b] {
			t.Errorf("block %d was copied, but no store touched it", b)
		}
	}
	if snap.span(0)[0] != p[0] || im.span(0)[0] != q[0] || im.span(100)[0] != p[0] {
		t.Error("the store showed in the snapshot, or the copy lost the block's other bytes")
	}
}

// TestOracleBlockRefs: the end-of-run rule oracle-block-refs holds the
// oracle's images to their references. A durable snapshot taken by
// share passes; one copied as a plain struct, through which a store
// would reach the snapshot, is reported by name.
func TestOracleBlockRefs(t *testing.T) {
	m := &machine{oracle: map[string]*ofile{}}
	of := m.ensure("/d0/w0f0")
	defer of.data.release()
	of.data.write(0, pattern(make([]byte, 2*blockSize+5), 0, 3))
	of.markDurable()
	if err := m.checkOracleRefs(); err != nil {
		t.Fatalf("a snapshot taken by share: %v", err)
	}
	of.synced.release()
	of.synced = of.data
	err := m.checkOracleRefs()
	if kernel.ViolationName(err) != "oracle-block-refs" {
		t.Errorf("a snapshot copied without share: %v, want oracle-block-refs", err)
	}
	of.synced = image{}
}
