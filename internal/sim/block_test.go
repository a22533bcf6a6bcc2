package sim

import "testing"

// resting counts what rests in the recycler, and rests it again.
func resting() (blocks, bytes int) {
	all := TakeBlocks()
	for _, b := range all {
		bytes += len(b.Bytes)
		b.Rest()
	}
	return len(all), bytes
}

// TestBlockRecycler: a draw is exactly the size asked for, held once; a
// block rests only when its last reference goes, cleared, and serves
// only its own size; the recycler keeps no reference to what it hands
// out.
func TestBlockRecycler(t *testing.T) {
	TakeBlocks()
	defer TakeBlocks()
	a := NewBlock(4096)
	if n, _ := resting(); len(a.Bytes) != 4096 || a.Shared() || n != 0 {
		t.Fatalf("fresh draw: len %d, shared %v, %d blocks resting", len(a.Bytes), a.Shared(), n)
	}
	a.Ref()
	if !a.Shared() {
		t.Fatal("a block with two references is not shared")
	}
	a.Bytes[17] = 0x5A
	a.Unref()
	if n, _ := resting(); n != 0 || a.Shared() {
		t.Fatalf("one of two references dropped: %d blocks rest, shared %v", n, a.Shared())
	}
	a.Unref()
	NewBlock(100).Unref()
	if n, bytes := resting(); n != 2 || bytes != 4196 {
		t.Fatalf("%d blocks, %d bytes rest, want 2 and 4196", n, bytes)
	}
	if b := NewBlock(4095); b == a {
		t.Fatal("a 4096-byte block served a 4095-byte draw")
	}
	b := NewBlock(4096)
	if b != a || b.Bytes[17] != 0 {
		t.Fatalf("the resting block was not drawn, or not cleared (byte %#x)", b.Bytes[17])
	}
	if NewBlock(4096) == a {
		t.Fatal("one block drawn twice")
	}
	if got := TakeBlocks(); len(got) != 1 || len(got[0].Bytes) != 100 || rest.bytes != 0 {
		t.Fatalf("TakeBlocks returned %d blocks, %d bytes still counted", len(got), rest.bytes)
	}
	defer func() {
		if recover() == nil {
			t.Error("a third Unref of a block drawn once did not panic")
		}
	}()
	b.Unref()
	b.Unref()
}

// TestBlockChunk: fresh blocks of a size come chunk to an allocation,
// fewer where that would pass chunkBytes, so a size drawn once holds at
// most chunkBytes it may never use. (The sizes are ones no other test
// draws, so their chunks are this test's.)
func TestBlockChunk(t *testing.T) {
	for _, c := range []struct{ n, want int }{{8<<10 + 8, 63}, {100 << 10, 5}, {300 << 10, 1}} {
		NewBlock(c.n).Unref()
		if got := len(rest.fresh[c.n]) + 1; got != c.want {
			t.Errorf("a fresh %d-byte block came %d to a chunk, want %d", c.n, got, c.want)
		}
	}
}

// TestBlockBound: resting bytes never pass RestBound; a block whose rest
// would pass it is left to the collector. (The blocks here are never
// touched, so they cost address space, not memory.)
func TestBlockBound(t *testing.T) {
	TakeBlocks()
	defer TakeBlocks()
	const quarter = RestBound / 4
	NewBlock(512).Unref()
	for i := 0; i < 4; i++ {
		(&Block{Bytes: make([]byte, quarter), refs: 1}).Unref()
	}
	if n, bytes := resting(); n != 4 || bytes != 512+3*quarter {
		t.Fatalf("%d blocks, %d bytes rest: want the small one and three quarters", n, bytes)
	}
	(&Block{Bytes: make([]byte, RestBound+1), refs: 1}).Unref()
	if n, _ := resting(); n != 4 {
		t.Fatalf("an oversize block left %d blocks resting", n)
	}
	TakeBlocks()
	if rest.bytes != 0 {
		t.Fatalf("the byte count drifted: %d with nothing resting", rest.bytes)
	}
}

// restingTables returns the tables that rest.
func restingTables() []any {
	_, tables := Resting()
	return tables
}

// TestTableRecycler: a table rests cleared and serves only a table of
// its element type and length, and what rests counts against RestBound.
func TestTableRecycler(t *testing.T) {
	TakeBlocks()
	defer TakeBlocks()
	a := NewTable[*Block](10)
	a[3] = NewBlock(8)
	RestTable(a)
	if rest.bytes != 80 {
		t.Fatalf("a resting 10-reference table counts %d bytes, want 80", rest.bytes)
	}
	if b := NewTable[*Block](9); &b[0] == &a[0] {
		t.Fatal("a 10-entry table served a 9-entry draw")
	}
	type rec struct{ a, b int64 }
	NewTable[rec](10)
	if got := restingTables(); len(got) != 1 {
		t.Fatalf("a draw of records took the table of references: %d tables rest, want 1", len(got))
	}
	if b := NewTable[*Block](10); &b[0] != &a[0] || b[3] != nil {
		t.Fatalf("the resting table was not drawn, or not cleared (entry 3 %v)", b[3])
	}
	r := NewTable[rec](4)
	r[1] = rec{7, 9}
	RestTable(r)
	if rest.bytes != 64 || NewTable[rec](4)[1] != (rec{}) {
		t.Fatalf("a 4-record table rested as %d bytes, or uncleared", rest.bytes)
	}
	RestTable(make([]rec, RestBound/16+1))
	if rest.bytes != 0 || len(restingTables()) != 0 {
		t.Fatalf("a table past RestBound rested: %d bytes counted", rest.bytes)
	}
}
