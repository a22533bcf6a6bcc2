package buf

import "kdp/internal/kernel"

// This file implements the buffer-cache invariant checker used by the
// simcheck harness (internal/simcheck). The checks are structural —
// they walk the hash table and free list without doing I/O or sleeping
// — so they are callable from any context, including the kernel's
// scheduling loop between events. A passing pass allocates nothing and
// visits buffers in a fixed order (free list, then hash buckets), so
// the violation reported for a given state is always the same one.
// Most passes check only what moved since the last (touched.go), and
// hand anything they fail to the full walk here, which reports.
//
// Invariant catalog (buffer cache):
//
//	buf-released         the cache still owns its buffer memory (no Release yet)
//	buf-free-link        free list forward/back pointers agree, count == nfree
//	buf-free-busy        no buffer is both BBusy and on the free list
//	buf-free-flag        onFree matches actual free-list membership
//	buf-hash-key         a hashed buffer is on the chain its Blkno selects,
//	                     and no chain loops back on itself
//	                     (chains are indexed by Blkno alone and a lookup
//	                     compares (Dev, Blkno) down the chain, so a changed
//	                     Dev, or a Blkno moved by a multiple of the table
//	                     size, leaves the buffer findable under its new
//	                     identity and is not a violation)
//	buf-hash-dup         at most one valid (non-BInval) buffer per (dev, blkno)
//	buf-flag-wanted      BWanted only while BBusy (someone holds the buffer)
//	buf-flag-delwri      BDelwri implies BDone and not BInval (dirty data is valid)
//	buf-flag-call        BCall implies a non-nil Iodone handler
//	buf-pool-account     nbuf == free buffers + busy hashed buffers + idle
//	                     held hashed buffers
//	buf-held-free        a held buffer (a mapped page's memory) is never on
//	                     the free list
//	buf-header-hashed    header-only (BNoMem) buffers never enter the hash
//	buf-ra-flag          BReadahead never on dirty or header-only buffers;
//	                     an in-flight (not BDone) readahead is a busy async read
//	buf-ra-pending       raPending == number of in-flight readahead buffers
//	buf-ra-budget        0 <= raPending <= the readahead budget
//	buf-block-owned      a delayed write's block is not the block its
//	                     platter holds for it, unless both are the zero
//	                     block: a store into a shared block went in
//	                     place (the sharing rule, cache.go "block
//	                     sharing")
//	buf-copy-hint        a set copy hint is a block with a reference left,
//	                     not the zero block, and has the user memory it
//	                     remembers (CopyOut)

// CheckInvariants verifies the cache's structural invariants, returning
// the first violation found (nil if the cache is consistent). It never
// sleeps and performs no I/O, and walks only when the cache's generation
// moved since its last passing walk (kernel.Gen), and then, when it can,
// only what moved (touched.go).
func (c *Cache) CheckInvariants() error {
	return c.gen.Check("buf", 0, c.check, c.digest)
}

// Gen is the cache's generation, for a catalog that reads buffer fields.
func (c *Cache) Gen() uint32 { return c.gen.N() }

// checkFull is the full walk, the touched walk's reference: the free
// list, then the hash chains in bucket order, then the counts. It notes
// each chain's counts, and the chain and class of each member, in the
// shadow if there is one.
func (c *Cache) checkFull() error {
	if c.zero == nil {
		return kernel.Violation("buf-released", "cache checked after Release")
	}
	if err := c.checkHint(); err != nil {
		return err
	}
	// Free-list walk: link integrity, counts, flags. Only pool buffers
	// are ever freed, so a walk longer than the pool has looped.
	n := 0
	var prev *Buf
	for b := c.freeHead; b != nil; b = b.freeNext {
		if n++; n > c.nbuf {
			return kernel.Violation("buf-free-link", "free list cycle at %s", b)
		}
		if b.freePrev != prev {
			return kernel.Violation("buf-free-link", "%s has freePrev=%p, want %p", b, b.freePrev, prev)
		}
		if !b.onFree {
			return kernel.Violation("buf-free-flag", "%s on free list with onFree=false", b)
		}
		if b.Flags&BBusy != 0 {
			return kernel.Violation("buf-free-busy", "busy buffer on free list: %s", b)
		}
		if b.Flags&BHeld != 0 {
			return kernel.Violation("buf-held-free", "held buffer on free list: %s", b)
		}
		if b.Flags&flagPremises != 0 {
			if err := checkBufFlags(b); err != nil {
				return err
			}
		}
		prev = b
	}
	if prev != c.freeTail {
		return kernel.Violation("buf-free-link", "freeTail=%p, want %p", c.freeTail, prev)
	}
	if n != c.nfree {
		return kernel.Violation("buf-free-link", "free list holds %d buffers, nfree says %d", n, c.nfree)
	}

	busy, held, inflightRA := 0, 0, 0
	w := c.ck
	if w != nil {
		for i := range w.bufs {
			w.bufs[i].chain = 0 // set again for every buffer a chain holds
		}
	}
	for i := range c.hash {
		t, _, err := c.checkChain(i, w)
		if err != nil {
			return err
		}
		busy, held, inflightRA = busy+int(t.busy), held+int(t.held), inflightRA+int(t.ra)
		if w != nil {
			w.heads[i] = t
		}
	}
	if c.nfree+busy+held != c.nbuf {
		return kernel.Violation("buf-pool-account", "free %d + busy %d + held %d != pool %d", c.nfree, busy, held, c.nbuf)
	}
	if inflightRA != c.raPending {
		return kernel.Violation("buf-ra-pending", "raPending=%d but %d in-flight readahead buffers", c.raPending, inflightRA)
	}
	if c.raPending < 0 || c.raPending > c.raMax {
		return kernel.Violation("buf-ra-budget", "raPending=%d outside [0, %d]", c.raPending, c.raMax)
	}
	return nil
}

// checkChain walks hash chain i, for both walks: chain keys, duplicate
// detection, each member's own checks, and the chain's counts. Only
// pool buffers are ever hashed, so a chain longer than the pool has
// looped. With a walker it records each pool member's chain and class,
// and kept counts the members it had recorded on this chain already.
func (c *Cache) checkChain(i int, w *walker) (t chainShadow, kept int, err error) {
	head := c.hash[i]
	for b := head; b != nil; b = b.hashNext {
		if t.n++; int(t.n) > len(c.pool) {
			return t, kept, kernel.Violation("buf-hash-key", "chain %d loops back to %s", i, b)
		}
		if !b.hashed {
			return t, kept, kernel.Violation("buf-hash-key", "%s on chain %d with hashed=false", b, i)
		}
		if b.Flags&BNoMem != 0 {
			return t, kept, kernel.Violation("buf-header-hashed", "header-only buffer in hash: %s", b)
		}
		if c.bucket(b.Blkno) != i {
			return t, kept, kernel.Violation("buf-hash-key", "%s hashed under chain %d", b, i)
		}
		if b.Flags&BInval == 0 {
			for dup := head; dup != b; dup = dup.hashNext {
				// Blkno first: it settles most pairs without the
				// costlier interface compare of Dev.
				if dup.Blkno == b.Blkno && dup.Dev == b.Dev && dup.Flags&BInval == 0 {
					return t, kept, kernel.Violation("buf-hash-dup", "blocks %s and %s both valid for %s#%d", dup, b, devName(b.Dev), b.Blkno)
				}
			}
		}
		cls, err := checkMember(b)
		if err != nil {
			return t, kept, err
		}
		t.add(cls, 1)
		if b.slot == 0 {
			t.foreign++
		} else if w != nil {
			s := &w.bufs[b.slot-1]
			if s.chain == uint16(i+1) {
				kept++
			}
			s.chain, s.class = uint16(i+1), cls
		}
	}
	return t, kept, nil
}

// checkMember checks hashed buffer b's own state — all the hash walk
// checks of it but its place on its chain — and returns the class it
// counts in: a busy buffer is off the free list, an idle one that is
// not held is on it.
func checkMember(b *Buf) (cls uint8, err error) {
	if ownsShared(b) {
		return 0, kernel.Violation("buf-block-owned", "%s stores into a block it shares", b)
	}
	if b.Flags&BBusy != 0 {
		if b.onFree {
			return 0, kernel.Violation("buf-free-busy", "busy hashed buffer claims free-list membership: %s", b)
		}
		if b.Flags&flagPremises != 0 {
			if err := checkBufFlags(b); err != nil {
				return 0, err
			}
		}
		cls = classBusy
	} else if b.Flags&BHeld != 0 {
		cls = classHeld
	} else if !b.onFree {
		return 0, kernel.Violation("buf-pool-account", "idle hashed buffer not on free list: %s", b)
	}
	if b.Flags&BReadahead != 0 && b.Flags&BDone == 0 {
		cls |= classRA
	}
	return cls, nil
}

// ownsShared reports whether b, a delayed write, which must own its
// block, shares its platter's. The zero block, which nothing stores
// into, may be both: a fresh page's buffer starts on it.
func ownsShared(b *Buf) bool {
	return b.Flags&BDelwri != 0 && b.blk != nil && b.Dev != nil && b.blk != b.pool.zero && b.blk == b.Dev.PlatterBlock(b.Blkno)
}

// checkHint checks the copy hint: the one check of it, which both walks
// make.
func (c *Cache) checkHint() error {
	h := c.hint
	if h == nil && c.hintMem == nil {
		return nil
	}
	if h == nil || !h.Held() || h == c.zero || c.hintMem == nil {
		return kernel.Violation("buf-copy-hint", "copy hint %p (zero block %v) remembers memory %p", h, h == c.zero, c.hintMem)
	}
	return nil
}

// digest folds in what the walks read of the cache itself; the audit
// holds each buffer and chain head to account on its own (resum).
func (c *Cache) digest(d *kernel.Digest) {
	d.Bool(c.zero == nil)
	kernel.Ptr(d, c.freeHead)
	kernel.Ptr(d, c.freeTail)
	d.Int(int64(c.nfree))
	d.Int(int64(c.nbuf))
	d.Int(int64(c.raPending))
	d.Int(int64(c.raMax))
	kernel.Ptr(d, c.hint)
	kernel.Ptr(d, c.hintMem)
}

// flagPremises are the flags checkBufFlags's rules are conditional on: a
// buffer carrying none of them passes every rule, so the walks skip the
// call for it (TestFlagRulesNeedAPremise holds the two to each other).
const flagPremises = BWanted | BDelwri | BCall | BReadahead

// checkBufFlags verifies per-buffer flag consistency.
func checkBufFlags(b *Buf) error {
	if b.Flags&BWanted != 0 && b.Flags&BBusy == 0 {
		return kernel.Violation("buf-flag-wanted", "BWanted without BBusy: %s", b)
	}
	if b.Flags&BDelwri != 0 {
		if b.Flags&BDone == 0 {
			return kernel.Violation("buf-flag-delwri", "BDelwri without BDone: %s", b)
		}
		if b.Flags&BInval != 0 {
			return kernel.Violation("buf-flag-delwri", "BDelwri on invalid buffer: %s", b)
		}
		if ownsShared(b) {
			return kernel.Violation("buf-block-owned", "%s stores into a block it shares", b)
		}
	}
	if b.Flags&BCall != 0 && b.Iodone == nil {
		return kernel.Violation("buf-flag-call", "BCall set with nil Iodone: %s", b)
	}
	if b.Flags&BReadahead != 0 {
		if b.Flags&(BDelwri|BNoMem) != 0 {
			return kernel.Violation("buf-ra-flag", "BReadahead on dirty or header-only buffer: %s", b)
		}
		if b.Flags&BDone == 0 && !b.HasFlags(BBusy|BRead|BAsync) {
			return kernel.Violation("buf-ra-flag", "in-flight readahead not a busy async read: %s", b)
		}
	}
	return nil
}

// damages is every deliberate corruption Damage knows, once: the
// invariant checker must trip on each — the fault-injection side of the
// checker's own test harness (simcheck's "corrupt one buffer-cache
// flag" acceptance check).
var damages = []struct {
	kind  string
	apply func(c *Cache)
}{
	// set BBusy on the head of the free list
	{"busy-on-freelist", func(c *Cache) {
		if b := c.freeHead; b != nil {
			b.Flags |= BBusy
			c.touch(b)
		}
	}},
	// set BDelwri without BDone on a free buffer
	{"delwri-undone", func(c *Cache) {
		if b := c.freeHead; b != nil {
			b.Flags |= BDelwri
			b.Flags &^= BDone
			c.touch(b)
		}
	}},
	// change the first hashed buffer's Blkno without rehashing
	{"hash-key", func(c *Cache) {
		for i := range c.pool {
			if b := &c.pool[i]; b.hashed {
				b.Blkno++
				c.rehash(b)
				break
			}
		}
	}},
	// bump raPending without an in-flight readahead
	{"ra-pending", func(c *Cache) { c.raPending++ }},
	// ra-pending, and the free tail, if dirty, goes invalid as well: which
	// check reports depends on the ops before it — the minimizer's self-test
	{"two-stage", func(c *Cache) {
		c.raPending++
		if b := c.freeTail; b != nil && b.Flags&BDelwri != 0 {
			b.Flags |= BInval
			c.rehash(b)
		}
	}},
}

// DamageKinds lists the kinds Damage accepts.
func DamageKinds() []string {
	kinds := make([]string, len(damages))
	for i, d := range damages {
		kinds[i] = d.kind
	}
	return kinds
}

// Damage deliberately corrupts one internal flag, selected by kind (one
// of DamageKinds; anything else panics). It is exported for tests and
// the simcheck harness only; production paths never call it.
func (c *Cache) Damage(kind string) {
	for _, d := range damages {
		if d.kind == kind {
			d.apply(c)
			c.gen.Bump() // a planted write is a modification too, touched where it is a buffer's
			return
		}
	}
	panic("buf: unknown damage kind " + kind)
}
