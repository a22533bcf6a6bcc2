package sim

import (
	"sync"
	"unsafe"
)

// RestBound is the most bytes the recycler below lets rest.
const RestBound = 64 << 20

// Block is a piece of a machine's host memory shared by count: one
// simulated block's bytes, which platter entries and cache buffers
// reference in common, or a cache's touched-walk shadow. Its holders
// take and drop references (Ref, Unref); the last Unref clears the bytes
// and rests the block in the recycler for the next NewBlock of its size.
// A holder that reuses the blocks its own machine let go of drops with
// Drop instead, and rests them (Rest) when it is done. A machine runs on
// one goroutine, so the count needs no lock: a block passes between
// machines only through the recycler's.
type Block struct {
	Bytes []byte
	refs  int32
}

// chunk is how many fresh blocks one allocation makes, fewer where
// they would pass chunkBytes: 8 KB objects allocated one at a time cost
// the Go allocator more than the copies that sharing them saves, and a
// chunk of larger blocks would hold memory no draw may ever take.
const chunk, chunkBytes = 64, 512 << 10

// recycler is the one recycler of a machine's big host memory between
// the machine that let it go and the next one built. It holds only
// all-zero blocks matched by size — no identity, no simulated state —
// so which block a build draws cannot show in a result. fresh holds,
// per size, the blocks of the last chunk that no draw has taken yet;
// tables, per element type and length, the cleared tables that rest,
// each a []T.
type recycler struct {
	sync.Mutex
	bySize map[int][]*Block
	fresh  map[int][]Block
	tables map[tableKey][]any
	bytes  int
}

// tableKey is a table's element type, as a nil *T, and its length.
type tableKey struct {
	elem any
	n    int
}

var rest = recycler{bySize: map[int][]*Block{}, fresh: map[int][]Block{}, tables: map[tableKey][]any{}}

// NewBlock returns n zero bytes held by one reference: a resting block
// of exactly that size if there is one, fresh memory otherwise.
func NewBlock(n int) *Block {
	rest.Lock()
	var b *Block
	if s := rest.bySize[n]; len(s) > 0 {
		b = s[len(s)-1]
		rest.bySize[n], rest.bytes = s[:len(s)-1], rest.bytes-n
	} else {
		f := rest.fresh[n]
		if len(f) == 0 {
			k := max(1, min(chunk, chunkBytes/max(n, 1)))
			mem := make([]byte, n*k)
			f = make([]Block, k)
			for i := range f {
				f[i].Bytes = mem[i*n:][:n:n]
			}
		}
		b, rest.fresh[n] = &f[0], f[1:]
	}
	rest.Unlock()
	b.refs = 1
	return b
}

// Ref takes another reference to b (nil takes none).
func (b *Block) Ref() {
	if b != nil {
		b.refs++
	}
}

// Shared reports whether b has more than one reference: a holder that
// stores into a shared block changes what the others read.
func (b *Block) Shared() bool { return b.refs > 1 }

// Unref drops a reference to b (nil drops none). The last one rests b.
func (b *Block) Unref() {
	if b.Drop() {
		b.Rest()
	}
}

// Drop drops a reference to b (nil drops none) and reports whether it
// was the last: the caller then has b, unreferenced, to Ref again or to
// Rest.
func (b *Block) Drop() (last bool) {
	if b == nil {
		return false
	}
	if b.refs--; b.refs < 0 {
		panic("sim: block released twice")
	}
	return b.refs == 0
}

// Rest clears b, which nothing references, and rests it, unless that
// would pass RestBound: then the collector takes it.
func (b *Block) Rest() {
	clear(b.Bytes)
	rest.Lock()
	defer rest.Unlock()
	if n := len(b.Bytes); rest.bytes+n <= RestBound {
		rest.bySize[n], rest.bytes = append(rest.bySize[n], b), rest.bytes+n
	}
}

// NewTable returns a table of n zero Ts — a platter's block references,
// a cache's buffer headers, a filesystem's claims — for a machine to
// hold until it rests it: a resting table of that type and length if
// there is one.
func NewTable[T any](n int) []T {
	k := tableKey{(*T)(nil), n}
	rest.Lock()
	defer rest.Unlock()
	s := rest.tables[k]
	if len(s) == 0 {
		return make([]T, n)
	}
	t := s[len(s)-1].([]T)
	s[len(s)-1], rest.tables[k] = nil, s[:len(s)-1]
	rest.bytes -= tableBytes(t)
	return t
}

// RestTable clears table t, whose holder is done with it (a block
// reference in it has been dropped), and rests it, unless that would
// pass RestBound.
func RestTable[T any](t []T) {
	clear(t)
	k := tableKey{(*T)(nil), len(t)}
	rest.Lock()
	defer rest.Unlock()
	if n := tableBytes(t); len(t) > 0 && rest.bytes+n <= RestBound {
		rest.tables[k], rest.bytes = append(rest.tables[k], t), rest.bytes+n
	}
}

// tableBytes is what table t counts against RestBound.
func tableBytes[T any](t []T) int { return len(t) * int(unsafe.Sizeof(*new(T))) }

// Resting returns every block and every table, each as its []T, that
// rests, for tests to scan; they stay resting.
func Resting() (blocks []*Block, tables []any) {
	rest.Lock()
	defer rest.Unlock()
	for _, s := range rest.bySize {
		blocks = append(blocks, s...)
	}
	for _, s := range rest.tables {
		tables = append(tables, s...)
	}
	return blocks, tables
}

// TakeBlocks empties the recycler, tables included, and returns the
// blocks that rested, for tests to scan (and Rest again) or to start
// from nothing resting.
func TakeBlocks() (all []*Block) {
	rest.Lock()
	defer rest.Unlock()
	for _, s := range rest.bySize {
		all = append(all, s...)
	}
	rest.bySize, rest.tables = map[int][]*Block{}, map[tableKey][]any{}
	rest.bytes = 0
	return all
}

// Held reports whether b has a reference: a holder's block that is not
// has been released under it.
func (b *Block) Held() bool { return b.refs > 0 }

// Refs returns how many references b has: a holder's own count check.
func (b *Block) Refs() int { return int(b.refs) }

// Span is N bytes of block Blk from Off on, a holder's reference to part
// of it: a piece of a send queue or of a packet's payload, as an mbuf
// points into a cluster. Each span holds one reference to its block.
type Span struct {
	Blk    *Block
	Off, N int
}

// SpanOf returns the span of blk that data is a window of, taking no
// reference.
func SpanOf(blk *Block, data []byte) Span {
	off := cap(blk.Bytes) - cap(data)
	if off < 0 || off+len(data) > len(blk.Bytes) || len(data) > 0 && &blk.Bytes[off] != &data[0] {
		panic("sim: data is not a window of the block")
	}
	return Span{blk, off, len(data)}
}

// Bytes returns the span's bytes.
func (s Span) Bytes() []byte { return s.Blk.Bytes[s.Off : s.Off+s.N] }

// Fault says what makes s no span a holder may keep — its bytes lie
// outside its block, or the block has no reference left — or returns ""
// for none.
func (s Span) Fault() string {
	switch {
	case s.Blk == nil:
		return "no block"
	case s.Off < 0 || s.N <= 0 || s.Off+s.N > len(s.Blk.Bytes):
		return "bytes outside its block"
	case !s.Blk.Held():
		return "block released under it"
	}
	return ""
}
