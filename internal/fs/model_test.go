package fs

import (
	"bytes"
	"fmt"
	"testing"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// TestRandomOpsAgainstModel drives the filesystem with random operation
// sequences and checks every observable result against a trivial
// in-memory reference model (map of path → contents). This is the
// strongest correctness test the filesystem has: any divergence in
// write extension, hole handling, truncation, unlinking or read
// boundaries shows up as a model mismatch.
func TestRandomOpsAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelSequence(t, seed, 160)
		})
	}
}

func runModelSequence(t *testing.T, seed uint64, steps int) {
	t.Helper()
	r := newRig(t, 1024)
	rnd := sim.NewRand(seed)
	model := map[string][]byte{} // reference contents per path
	names := []string{"/a", "/b", "/c", "/d"}

	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for step := 0; step < steps; step++ {
			name := names[rnd.Intn(len(names))]
			switch op := rnd.Intn(10); {
			case op < 4: // write a random range
				_, exists := model[name]
				fl, err := f.OpenFile(ctx, name, kernel.OCreat|kernel.ORdWr)
				if err != nil {
					t.Fatalf("step %d: open %s: %v", step, name, err)
				}
				if !exists {
					model[name] = nil
				}
				off := rnd.Int63n(5 * testBlockSize)
				n := int(rnd.Int63n(2*testBlockSize)) + 1
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rnd.Intn(256))
				}
				if _, err := fl.Write(ctx, data, off); err != nil {
					t.Fatalf("step %d: write %s: %v", step, name, err)
				}
				// Model: extend with zeros, then patch.
				ref := model[name]
				if int64(len(ref)) < off+int64(n) {
					grown := make([]byte, off+int64(n))
					copy(grown, ref)
					ref = grown
				}
				copy(ref[off:], data)
				model[name] = ref
				_ = fl.Close(ctx)

			case op < 7: // read a random range and compare
				ref, exists := model[name]
				fl, err := f.OpenFile(ctx, name, kernel.ORdOnly)
				if !exists {
					if err != kernel.ErrNoEnt {
						t.Fatalf("step %d: open missing %s: %v", step, name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: open %s: %v", step, name, err)
				}
				off := rnd.Int63n(6 * testBlockSize)
				n := int(rnd.Int63n(2*testBlockSize)) + 1
				got := make([]byte, n)
				rn, err := fl.Read(ctx, got, off)
				if err != nil {
					t.Fatalf("step %d: read %s: %v", step, name, err)
				}
				var want []byte
				if off < int64(len(ref)) {
					end := off + int64(n)
					if end > int64(len(ref)) {
						end = int64(len(ref))
					}
					want = ref[off:end]
				}
				if rn != len(want) || !bytes.Equal(got[:rn], want) {
					t.Fatalf("step %d: read %s @%d: got %d bytes, want %d", step, name, off, rn, len(want))
				}
				if sz, _ := fl.(*File).Size(ctx); sz != int64(len(ref)) {
					t.Fatalf("step %d: size %s = %d, want %d", step, name, sz, len(ref))
				}
				_ = fl.Close(ctx)

			case op < 8: // truncate via O_TRUNC
				if _, exists := model[name]; !exists {
					continue
				}
				fl, err := f.OpenFile(ctx, name, kernel.ORdWr|kernel.OTrunc)
				if err != nil {
					t.Fatalf("step %d: trunc %s: %v", step, name, err)
				}
				model[name] = nil
				_ = fl.Close(ctx)

			case op < 9: // remove
				_, exists := model[name]
				err := f.Remove(ctx, name)
				if exists && err != nil {
					t.Fatalf("step %d: remove %s: %v", step, name, err)
				}
				if !exists && err != kernel.ErrNoEnt {
					t.Fatalf("step %d: remove missing %s: %v", step, name, err)
				}
				delete(model, name)

			default: // sync everything (should never change contents)
				if err := f.SyncAll(ctx); err != nil {
					t.Fatalf("step %d: syncall: %v", step, err)
				}
			}
		}

		// Final sweep: every model file matches byte for byte.
		for name, ref := range model {
			fl, err := f.OpenFile(ctx, name, kernel.ORdOnly)
			if err != nil {
				t.Fatalf("final open %s: %v", name, err)
			}
			got := make([]byte, len(ref)+100)
			rn, err := fl.Read(ctx, got, 0)
			if err != nil {
				t.Fatalf("final read %s: %v", name, err)
			}
			if rn != len(ref) || !bytes.Equal(got[:rn], ref) {
				t.Fatalf("final contents of %s diverge from model (%d vs %d bytes)", name, rn, len(ref))
			}
			_ = fl.Close(ctx)
		}
	})
}

// TestModelSurvivesRemount runs a short random sequence, syncs,
// remounts with a cold cache, and re-verifies against the model.
func TestModelSurvivesRemount(t *testing.T) {
	r := newRig(t, 1024)
	rnd := sim.NewRand(99)
	model := map[string][]byte{}

	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("/f%d", rnd.Intn(3))
			fl, err := f.OpenFile(ctx, name, kernel.OCreat|kernel.ORdWr)
			if err != nil {
				t.Fatal(err)
			}
			off := rnd.Int63n(3 * testBlockSize)
			data := make([]byte, rnd.Intn(testBlockSize)+1)
			for j := range data {
				data[j] = byte(rnd.Intn(256))
			}
			if _, err := fl.Write(ctx, data, off); err != nil {
				t.Fatal(err)
			}
			ref := model[name]
			if int64(len(ref)) < off+int64(len(data)) {
				grown := make([]byte, off+int64(len(data)))
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], data)
			model[name] = ref
			_ = fl.Close(ctx)
		}
		if err := f.SyncAll(ctx); err != nil {
			t.Fatal(err)
		}
	})

	r.fsy = nil // force remount
	r.run(t, func(p *kernel.Proc, f *FS) {
		ctx := p.Ctx()
		if err := f.Cache().InvalidateDev(ctx, r.d); err != nil {
			t.Fatal(err)
		}
		for name, ref := range model {
			fl, err := f.OpenFile(ctx, name, kernel.ORdOnly)
			if err != nil {
				t.Fatalf("remount open %s: %v", name, err)
			}
			got := make([]byte, len(ref))
			rn, err := fl.Read(ctx, got, 0)
			if err != nil || rn != len(ref) || !bytes.Equal(got, ref) {
				t.Fatalf("remount contents of %s diverge (n=%d err=%v)", name, rn, err)
			}
			_ = fl.Close(ctx)
		}
	})
}
