package sim

import "testing"

// resting sums what rests in the recycler, and rests it again.
func resting() (slabs, bytes int) {
	all := TakeSlabs()
	for _, s := range all {
		bytes += len(s)
		PutSlab(s)
	}
	return len(all), bytes
}

// TestSlabRecycler: a draw is exactly the size asked for, a resting
// slab serves only that size, and the recycler keeps no reference to
// what it hands out.
func TestSlabRecycler(t *testing.T) {
	TakeSlabs()
	a := GetSlab(4096)
	if n, _ := resting(); len(a) != 4096 || n != 0 {
		t.Fatalf("fresh draw: len %d, %d slabs resting", len(a), n)
	}
	PutSlab(a)
	PutSlab(make([]byte, 100))
	if n, bytes := resting(); n != 2 || bytes != 4196 {
		t.Fatalf("%d slabs, %d bytes rest, want 2 and 4196", n, bytes)
	}
	if b := GetSlab(4095); &b[0] == &a[0] {
		t.Fatal("a 4096-byte slab served a 4095-byte draw")
	}
	if b := GetSlab(4096); &b[0] != &a[0] {
		t.Fatal("the resting slab was not drawn")
	}
	if b := GetSlab(4096); &b[0] == &a[0] {
		t.Fatal("one slab drawn twice")
	}
	if got := TakeSlabs(); len(got) != 1 || len(got[0]) != 100 || slabs.bytes != 0 {
		t.Fatalf("TakeSlabs returned %d slabs, %d bytes still counted", len(got), slabs.bytes)
	}
}

// TestSlabBound: resting bytes never pass SlabBound. The put that
// crosses it drops the slabs that have rested longest, and a slab
// bigger than the bound is not kept. (The slabs here are never touched,
// so they cost address space, not memory.)
func TestSlabBound(t *testing.T) {
	TakeSlabs()
	defer TakeSlabs()
	const quarter = SlabBound / 4
	PutSlab(make([]byte, 512))
	for i := 0; i < 4; i++ {
		PutSlab(make([]byte, quarter))
	}
	if n, bytes := resting(); n != 4 || bytes != SlabBound {
		t.Fatalf("%d slabs, %d bytes rest: want the four quarters, the oldest slab dropped", n, bytes)
	}
	PutSlab(make([]byte, SlabBound+1))
	if n, _ := resting(); n != 0 {
		t.Fatalf("an oversize slab left %d slabs resting, itself among them?", n)
	}
	if slabs.bytes != 0 {
		t.Fatalf("the byte count drifted: %d with nothing resting", slabs.bytes)
	}
}
