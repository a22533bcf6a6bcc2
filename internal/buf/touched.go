package buf

import (
	"math/bits"
	"unsafe"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// The touched walk (docs/CHECKING.md, "What a probe costs"). Between two
// probes an operation writes a handful of buffers, and the full walk
// (checkFull) re-reads all of them. Instead, every write to a field the
// catalog reads marks the buffer it writes: rehash for a write to its
// place in the hash (hashNext, hashed, Blkno, Dev, or the BInval and
// BNoMem flags a chain's checks key on), touch for any other (its other
// flags, onFree, its free-list links). A write to a hash chain's head
// marks the chain. The next pass checks only what the marks name,
// against a shadow of what the last walk saw, and gives the full walk's
// verdict:
//
//   - Free list. Call G the pool buffers with onFree set. Each one must
//     pass the full walk's per-buffer checks and be linked both ways to
//     its neighbours, which are in G too, stamped lower before it and
//     higher after it, and a missing neighbour must make it freeHead or
//     freeTail. G then is one list from freeHead to freeTail, since a
//     stamp cannot increase around a cycle, and |G| must be nfree. A
//     buffer in G nobody marked met all of this at the last walk with
//     the same fields, so only the links to a marked buffer can have
//     broken: the pass checks each marked buffer, those of its
//     neighbours at the last walk (from the shadow) that no longer are
//     its neighbours in G, and both ends, now and at the last walk, if
//     they moved. |G| is a tally moved by each buffer's change of onFree.
//   - Hash chains. A chain's members and their order change only through
//     a write to its head (a mark) or to a member's place (rehashed, and
//     the shadow recorded the chain the last walk found it on), so the
//     pass re-walks exactly those chains, whole, with the full walk's
//     per-chain checks (checkChain). A member only touched keeps its
//     place, and with it its key and duplicate checks' verdicts: the
//     pass checks it alone (checkMember). Either way each member's class
//     (busy, held, in-flight readahead) moves the tallies.
//   - The counts: the tallies against nfree, nbuf, raPending and raMax.
//
// Any failure, and any marked set larger than a quarter of the pool
// (Crash, InvalidateDev, a big flush), hands the pass to checkFull,
// which reports today's first violation or, passing, seeds the shadow
// again. The audit runs both walks at every pass (auditWalk).

// maxPool is the most buffers a cache may hold: slots are 16 bits.
const maxPool = 1<<16 - 1

// touchedShare: a marked set larger than 1/touchedShare of the pool is
// checked by the full walk.
const touchedShare = 4

// walker is the touched walk's state. Its arrays hold no pointers, so
// they are cut from one block of bytes, mem, which Release rests in
// sim's recycler beside the buffers' blocks: a machine rebuilt from the
// recycler allocates only this header.
type walker struct {
	mem      *sim.Block    // the block the arrays below are cut from
	touched  []uint64      // pool buffers written since the last walk, by index
	rehashed []uint64      // of those, the ones whose place in the hash was written
	chains   []uint64      // hash chains whose head was written since the last walk
	bufs     []bufShadow   // what the last walk saw of each pool buffer
	heads    []chainShadow // what the last walk counted on each chain

	// seeded: the shadow and tallies describe the cache as the last
	// walk left it (false before the first walk and after a failure).
	seeded bool
	lo, hi int32 // the lowest and highest stamps handed out
	head   *Buf  // freeHead at the last walk
	tail   *Buf  // freeTail at the last walk

	// The tallies, as at the last walk: the buffers with onFree set,
	// and the members of each class over all chains.
	free  int
	total chainShadow

	// The audit's records (auditWalk): two sums of each buffer (its
	// place in the hash, the rest) and one of each chain head at the last
	// walk, taken under audit epoch auditAt.
	sums    []uint64
	auditAt uint32
}

type bufShadow struct {
	prev, next uint16 // free-list neighbours' slots at the last walk
	chain      uint16 // 1 + the chain the last walk found it on; 0 for none
	onFree     bool
	class      uint8 // what the last walk counted it as on its chain
}

// A chain member's class: the tallies it counts in.
const (
	classBusy = 1 << iota
	classHeld
	classRA
)

// chainShadow is one hash chain's counts, as the walks tally them: its
// members, those of each class, and those outside the pool, which the
// touched walk cannot follow.
type chainShadow struct{ n, busy, held, ra, foreign uint16 }

// add counts a member of class cls in t, n times (n = ^0 takes one out).
func (t *chainShadow) add(cls uint8, n uint16) {
	if cls&classBusy != 0 {
		t.busy += n
	}
	if cls&classHeld != 0 {
		t.held += n
	}
	if cls&classRA != 0 {
		t.ra += n
	}
}

// move counts a member of class from as one of class to.
func (t *chainShadow) move(from, to uint8) {
	t.add(from, ^uint16(0))
	t.add(to, 1)
}

func words(n int) int { return (n + 63) / 64 }

// shadowBytes is the shadow's size for nbuf buffers on nhash chains.
func shadowBytes(nbuf, nhash int) int {
	return 8*(2*words(nbuf)+words(nhash)) +
		nbuf*int(unsafe.Sizeof(bufShadow{})) + nhash*int(unsafe.Sizeof(chainShadow{}))
}

// carve returns the first n records of type T in *mem, which it
// advances past them. T must hold no pointers: mem is plain bytes.
func carve[T any](mem *[]byte, n int) []T {
	s := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(*mem))), n)
	*mem = (*mem)[n*int(unsafe.Sizeof(s[0])):]
	return s
}

// walker returns the cache's walker, making it at the first check.
func (c *Cache) walker() *walker {
	if c.ck == nil {
		w := &walker{mem: sim.NewBlock(shadowBytes(len(c.pool), len(c.hash)))}
		mem := w.mem.Bytes // the bitsets first: a fresh block is word-aligned
		w.touched, w.rehashed = carve[uint64](&mem, words(len(c.pool))), carve[uint64](&mem, words(len(c.pool)))
		w.chains = carve[uint64](&mem, words(len(c.hash)))
		w.bufs, w.heads = carve[bufShadow](&mem, len(c.pool)), carve[chainShadow](&mem, len(c.hash))
		c.ck = w
	}
	return c.ck
}

// touch records a write to a field of b the catalog reads, other than
// its place in the hash: b joins the touched set, and the generation
// moves. A header is no pool buffer and is in no catalog; a write to it
// only moves the generation.
func (c *Cache) touch(b *Buf) {
	c.gen.Bump()
	if w := c.ck; w != nil && b.slot != 0 {
		i := b.slot - 1
		w.touched[i>>6] |= 1 << (i & 63)
	}
}

// rehash is touch for a write that may move b's place in the hash.
func (c *Cache) rehash(b *Buf) {
	c.gen.Bump()
	if w := c.ck; w != nil && b.slot != 0 {
		i := b.slot - 1
		w.touched[i>>6] |= 1 << (i & 63)
		w.rehashed[i>>6] |= 1 << (i & 63)
	}
}

// touchChain records a write to the head of hash chain i.
func (c *Cache) touchChain(i int) {
	if w := c.ck; w != nil {
		w.chains[i>>6] |= 1 << (i & 63)
	}
}

// nextStamp hands out a stamp below every other on the list for a
// push at the front, above every other for one at the back. A count
// that wraps, after 2^31 pushes without a full walk, fails one touched
// walk, and the full walk that takes over stamps the list afresh.
func (w *walker) nextStamp(front bool) int32 {
	if front {
		w.lo--
		return w.lo
	}
	w.hi++
	return w.hi
}

// small reports whether the marked buffers are few enough to walk.
func (w *walker) small(nbuf int) bool {
	n := 0
	for _, x := range w.touched {
		n += bits.OnesCount64(x)
	}
	return n*touchedShare <= nbuf
}

// marked reports whether the buffer in slot s is still to be walked.
func (w *walker) marked(s uint16) bool {
	i := s - 1
	return w.touched[i>>6]&(1<<(i&63)) != 0
}

// at is the pool buffer in slot s, nil for slot 0.
func (c *Cache) at(s uint16) *Buf {
	if s == 0 {
		return nil
	}
	return &c.pool[s-1]
}

func slotOf(b *Buf) uint16 {
	if b == nil {
		return 0
	}
	return b.slot
}

// check is the catalog's walk: the touched walk when the shadow is
// seeded and the marked set small, the full walk otherwise or when the
// touched walk fails.
func (c *Cache) check() error {
	if c.zero == nil {
		return c.checkFull()
	}
	w := c.walker()
	if kernel.AuditEpoch() != 0 {
		return c.auditWalk(w)
	}
	if w.seeded && w.small(len(c.pool)) && c.walkTouched(w) {
		return nil
	}
	return c.walkFull(w)
}

// walkFull runs the full walk and, if it passes, seeds the shadow.
func (c *Cache) walkFull(w *walker) error {
	if err := c.checkFull(); err != nil {
		w.seeded = false
		return err
	}
	c.seed(w)
	return nil
}

// seed makes the shadow describe the cache as a passing full walk just
// saw it (checkFull counted the chains into w.heads, and each member's
// chain and class into w.bufs): it stamps the free list in order,
// records every buffer's links, sums the tallies and clears the marks.
// A state the touched walk cannot follow — an onFree buffer off the
// list, a header on the list or a chain — is left unseeded, and the
// next pass walks in full again.
func (c *Cache) seed(w *walker) {
	clear(w.touched)
	clear(w.rehashed)
	clear(w.chains)
	w.seeded = false
	var n int32
	for b := c.freeHead; b != nil; b = b.freeNext {
		if b.slot == 0 {
			return
		}
		n++
		b.stamp = n
	}
	w.lo, w.hi = 1, n
	free := 0
	for i := range c.pool {
		b := &c.pool[i]
		if b.onFree {
			free++
		}
		s := &w.bufs[i]
		s.prev, s.next, s.onFree = slotOf(b.freePrev), slotOf(b.freeNext), b.onFree
	}
	w.free, w.total = free, chainShadow{}
	for _, h := range w.heads {
		if h.foreign != 0 {
			return
		}
		w.total.busy += h.busy
		w.total.held += h.held
		w.total.ra += h.ra
	}
	w.head, w.tail = c.freeHead, c.freeTail
	w.seeded = free == int(n)
}

// walkTouched checks what the marks name (see the top of this file) and
// reports whether all of it passed. It moves the shadow to the state it
// checked and clears the marks as it goes, so a failure leaves the
// shadow unseeded.
func (c *Cache) walkTouched(w *walker) bool {
	w.seeded = false
	if c.checkHint() != nil {
		return false
	}
	h, t := c.freeHead, c.freeTail
	if h != nil && !h.onFree || t != nil && !t.onFree || (h == nil) != (t == nil) {
		return false
	}
	if (h != w.head || t != w.tail) && !(c.end(w, h) && c.end(w, t) && c.end(w, w.head) && c.end(w, w.tail)) {
		return false
	}
	for k, word := range w.touched {
		rehashed := w.rehashed[k]
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			b, s := &c.pool[i], &w.bufs[i]
			if !c.linked(b) || !c.wasLinked(w, b, s.prev, b.freePrev) || !c.wasLinked(w, b, s.next, b.freeNext) {
				return false
			}
			if b.onFree && !s.onFree {
				w.free++
			} else if !b.onFree && s.onFree {
				w.free--
			}
			s.prev, s.next, s.onFree = slotOf(b.freePrev), slotOf(b.freeNext), b.onFree
			if s.chain == 0 {
				continue
			}
			j := int(s.chain - 1)
			if rehashed&(1<<(i&63)) != 0 {
				w.chains[j>>6] |= 1 << (j & 63)
				w.heads[j].n--
				s.chain = 0 // set again if the chain still holds it
				continue
			}
			var cls uint8 // an idle buffer on the free list passes as class 0
			if b.Flags&(BBusy|BHeld|BReadahead) != 0 || !b.onFree {
				var err error
				if cls, err = checkMember(b); err != nil {
					return false
				}
			}
			if cls != s.class {
				w.heads[j].move(s.class, cls)
				w.total.move(s.class, cls)
				s.class = cls
			}
		}
		w.touched[k], w.rehashed[k] = 0, 0
	}
	if w.free != c.nfree {
		return false
	}
	for k, word := range w.chains {
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			// Every member the shadow still has on the chain must be
			// found on it: a member that left it was rehashed.
			t, kept, err := c.checkChain(i, w)
			if err != nil || t.foreign != 0 || kept != int(w.heads[i].n) {
				return false
			}
			old := &w.heads[i]
			w.total.busy += t.busy - old.busy
			w.total.held += t.held - old.held
			w.total.ra += t.ra - old.ra
			*old = t
		}
		w.chains[k] = 0
	}
	if c.nfree+int(w.total.busy)+int(w.total.held) != c.nbuf || int(w.total.ra) != c.raPending || c.raPending < 0 || c.raPending > c.raMax {
		return false
	}
	w.head, w.tail = h, t
	w.seeded = true
	return true
}

// linked checks one buffer of G (nil, or a buffer without onFree, is
// not one): the full walk's free-list checks, and its links.
func (c *Cache) linked(b *Buf) bool {
	if b == nil || !b.onFree {
		return true
	}
	if b.slot == 0 || b.Flags&(BBusy|BHeld) != 0 || b.Flags&flagPremises != 0 && checkBufFlags(b) != nil {
		return false
	}
	if n := b.freeNext; n == nil {
		if b != c.freeTail {
			return false
		}
	} else if n.slot == 0 || !n.onFree || n.freePrev != b || n.stamp <= b.stamp {
		return false
	}
	if p := b.freePrev; p != nil {
		return p.slot != 0 && p.onFree && p.freeNext == b && p.stamp < b.stamp
	}
	return b == c.freeHead
}

// end checks an end of the list, now or at the last walk, unless it is
// a marked buffer (its own turn checks it).
func (c *Cache) end(w *walker, b *Buf) bool {
	return b == nil || b.slot != 0 && w.marked(b.slot) || c.linked(b)
}

// wasLinked checks b's neighbour at the last walk, in slot old, which
// may now point at b without b pointing back. It need not when that is
// b's neighbour now, in G (linked(b) checked the links between them),
// or a marked buffer (its own turn checks it).
func (c *Cache) wasLinked(w *walker, b *Buf, old uint16, now *Buf) bool {
	x := c.at(old)
	if x == nil || x == now && b.onFree || w.marked(old) {
		return true
	}
	return c.linked(x)
}

// auditWalk is a pass under the audit: resum, then both walks, whose
// verdicts must agree.
func (c *Cache) auditWalk(w *walker) error {
	epoch := kernel.AuditEpoch()
	if err := c.resum(w, w.seeded && w.auditAt == epoch); err != nil {
		return err
	}
	walked := w.seeded && w.small(len(c.pool))
	passed := walked && c.walkTouched(w)
	err := c.checkFull()
	if walked && passed && err != nil {
		return &kernel.AuditError{Owner: "buf", Detail: "the touched walk passed what the full walk fails: " + err.Error()}
	}
	if walked && !passed && err == nil {
		return &kernel.AuditError{Owner: "buf", Detail: "the touched walk failed what the full walk passes"}
	}
	if err != nil {
		w.seeded = false
		return err
	}
	if !passed {
		c.seed(w)
		c.resum(w, false) // seed stamped the free list afresh
	}
	w.auditAt = epoch
	return nil
}

// resum records the audit's sums of every buffer and chain head. With
// check, it first holds each to the sum the last walk recorded: a
// buffer nobody marked must sum as then, a touched one but for what is
// not its place in the hash, and a chain head nobody marked likewise. A
// difference is a write without its mark, reported as an AuditError
// naming the buffer.
func (c *Cache) resum(w *walker, check bool) error {
	if w.sums == nil {
		w.sums = make([]uint64, 2*len(c.pool)+len(c.hash))
	}
	for i := range c.pool {
		b, bit := &c.pool[i], uint64(1)<<(i&63)
		place, rest := bufSums(b)
		if check && w.rehashed[i>>6]&bit == 0 &&
			(place != w.sums[2*i] || w.touched[i>>6]&bit == 0 && rest != w.sums[2*i+1]) {
			return &kernel.AuditError{Owner: "buf", Detail: b.String() + " moved without its mark"}
		}
		w.sums[2*i], w.sums[2*i+1] = place, rest
	}
	for i, h := range c.hash {
		sum := uint64(uintptr(unsafe.Pointer(h)))
		if check && w.chains[i>>6]&(1<<(i&63)) == 0 && sum != w.sums[2*len(c.pool)+i] {
			return &kernel.AuditError{Owner: "buf", Detail: "a chain head moved without its mark"}
		}
		w.sums[2*len(c.pool)+i] = sum
	}
	return nil
}

// placeFlags are the flags a chain's key and duplicate checks read.
const placeFlags = BInval | BNoMem

// bufSums folds in what the walks read of b: its place in the hash, and
// the rest. BError is read by no check, so the driver's writes of it
// need no mark and are left out.
func bufSums(b *Buf) (place, rest uint64) {
	var d kernel.Digest
	kernel.Ptr(&d, b.hashNext)
	d.Bool(b.hashed)
	d.Int(b.Blkno)
	d.Int(int64(b.Flags & placeFlags))
	if b.Dev != nil {
		d.Str(b.Dev.DevName())
	}
	place = d.Sum()
	d = kernel.Digest{}
	kernel.Ptr(&d, b.freePrev)
	kernel.Ptr(&d, b.freeNext)
	d.Bool(b.onFree)
	d.Int(int64(b.Flags &^ (BError | placeFlags)))
	d.Int(int64(b.stamp))
	d.Bool(b.Iodone == nil)
	d.Bool(ownsShared(b))
	return place, d.Sum()
}
