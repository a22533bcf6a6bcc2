package simcheck

import (
	"bytes"
	"testing"
)

// FuzzImage runs a program of stores, shares and adoptions over two
// images and holds each against a flat []byte kept the plain way. A
// share of one image into the other is the oracle's durable snapshot
// (markDurable) or its crash restore (postCrashOracle), and an adoption
// is doPipeSplice's; a store into either image must never show in the
// other. Every byte of the program is consumed as it is read, and a
// program that runs out mid-op ends there.
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
		var ims [2]image
		var refs [2][]byte
		zeros := make([]byte, 2*blockSize)
		for step := 0; len(prog) > 0; step++ {
			op := next()
			i := op >> 2 & 1
			switch op % 3 {
			case 0: // store
				off, n := span(6*blockSize), span(2*blockSize+1)
				p := pattern(make([]byte, n), int64(off), byte(next()))
				ims[i].write(off, p)
				if len(refs[i]) < off+n {
					refs[i] = append(refs[i], make([]byte, off+n-len(refs[i]))...)
				}
				copy(refs[i][off:], p)
			case 1: // share i into the other
				ims[1-i] = ims[i].share()
				refs[1-i] = bytes.Clone(refs[i])
			case 2: // adopt, with bytes that are not zero in the tail's capacity
				n := span(4 * blockSize)
				p := pattern(make([]byte, (n+blockSize-1)/blockSize*blockSize), 0, byte(next()))[:n]
				refs[i] = bytes.Clone(p)
				ims[i] = adopt(p)
			}
			for j := range ims {
				im, ref := &ims[j], refs[j]
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
		}
	})
}

// TestImageStoreAllocatesNothing is the image's allocation budget: a
// store into blocks the image owns allocates nothing, and a store after
// a share copies the blocks it touches and leaves the others shared.
func TestImageStoreAllocatesNothing(t *testing.T) {
	p := pattern(make([]byte, 3*blockSize), 0, 7)
	var im image
	im.write(100, p)
	if n := testing.AllocsPerRun(100, func() {
		im.write(100, p)
		im.write(5000, p[:2*blockSize])
	}); n != 0 {
		t.Errorf("a store into owned blocks allocated %v times, want 0", n)
	}
	snap := im.share()
	im.write(0, p[:10])
	if &im.blocks[0][0] == &snap.blocks[0][0] {
		t.Error("a store after a share wrote the shared block")
	}
	for b := 1; b < len(im.blocks); b++ {
		if &im.blocks[b][0] != &snap.blocks[b][0] {
			t.Errorf("block %d was copied, but no store touched it", b)
		}
	}
	if snap.span(0)[0] != 0 || im.span(0)[0] != p[0] || snap.span(100)[0] != p[0] {
		t.Error("the store showed in the snapshot")
	}
}
