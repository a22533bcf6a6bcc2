package kernel

import "unsafe"

// The generation rule (docs/CHECKING.md, "What a probe costs"): each
// invariant catalog's owner keeps a Gen, every write to a field the
// catalog reads bumps it, and a pass walks the catalog only when the
// generation, summed with those of any other owners whose fields it
// reads, moved since the owner's last passing walk. The audit (SetAudit,
// for tests) holds the bump sites to account: at every skipped pass it
// walks anyway and compares a digest of exactly what the catalog reads
// with the one taken at the owner's last walk.

// Gen is one catalog owner's modification generation and the rule's
// record of its last passing walk. The zero value has never been walked.
// The counts wrap at 2^32, which only 2^32 bumps between two probes
// could make ambiguous; two words keep the owners in their allocation
// size classes.
type Gen struct {
	n      uint32 // bumped by every write to a field the catalog reads
	walked uint32 // 1 + the generation the last passing walk saw; 0 before it
}

// Bump records a write to state the owner's catalog reads.
func (g *Gen) Bump() { g.n++ }

// N is the generation, for a catalog of another owner that reads this
// owner's fields too.
func (g *Gen) N() uint32 { return g.n }

// Check runs walk unless the generation plus other (the generations of
// other owners whose fields walk reads) is the one its last passing walk
// saw. digest folds in exactly what walk reads; only the audit calls it.
func (g *Gen) Check(owner string, other uint32, walk func() error, digest func(*Digest)) error {
	if g.walked == g.n+other+1 && auditSums == nil {
		return nil // inlined into the owner's check: a skip is two compares
	}
	return g.check(owner, other, walk, digest)
}

func (g *Gen) check(owner string, other uint32, walk func() error, digest func(*Digest)) error {
	at := g.n + other + 1
	if g.walked == at { // skipped, but audited
		if err := walk(); err != nil {
			return err
		}
		if sum, ok := auditSums[g]; ok && auditDigest(digest) != sum {
			return &AuditError{Owner: owner}
		}
		return nil
	}
	if err := walk(); err != nil {
		return err
	}
	g.walked = at
	if auditSums != nil {
		auditSums[g] = auditDigest(digest)
	}
	return nil
}

// AuditError is the audit's report of state an owner's catalog reads
// that moved while the owner's generation did not: a missing bump. An
// owner that audits finer than the generation (the buffer cache, which
// records the buffers it touches) says what moved in Detail.
type AuditError struct{ Owner, Detail string }

func (e *AuditError) Error() string {
	if e.Detail != "" {
		return "audit: " + e.Owner + ": " + e.Detail
	}
	return "audit: " + e.Owner + " state moved without a generation bump"
}

// The audit's state: while it is on, the digest each owner's last walk
// took, and the scratch a digest is taken in, so that taking one
// allocates nothing.
var (
	auditSums  map[*Gen]uint64
	auditD     Digest
	auditEpoch uint32
)

// SetAudit turns the generation rule's audit on, forgetting every digest
// an earlier audit took, or off, for every owner in the process. It is
// for tests: an audited pass costs a full walk and a digest of every
// catalog. The switch is a plain variable, so that the skip test
// inlines: set it while no machine runs on another goroutine.
func SetAudit(on bool) {
	auditSums = nil
	if on {
		auditSums = map[*Gen]uint64{}
		auditEpoch++
	}
}

// AuditEpoch is 0 while the audit is off, and otherwise names the
// SetAudit(true) that turned it on, so that an owner keeping audit
// records of its own knows when to forget them.
func AuditEpoch() uint32 {
	if auditSums == nil {
		return 0
	}
	return auditEpoch
}

// Digest folds the values a catalog reads into one word (FNV-1a over
// 64-bit words). Pointers enter by address: the heap does not move.
type Digest struct{ h uint64 }

func auditDigest(fold func(*Digest)) uint64 {
	auditD.h = 14695981039346656037
	fold(&auditD)
	return auditD.h
}

// Sum is what has been folded in so far.
func (d *Digest) Sum() uint64 { return d.h }

// Int folds in one integer.
func (d *Digest) Int(v int64) { d.h = (d.h ^ uint64(v)) * 1099511628211 }

// Bool folds in one truth value.
func (d *Digest) Bool(b bool) {
	if b {
		d.Int(1)
	} else {
		d.Int(0)
	}
}

// Str folds in one string.
func (d *Digest) Str(s string) {
	for i := 0; i < len(s); i++ {
		d.Int(int64(s[i]))
	}
	d.Int(int64(len(s)))
}

// Ptr folds in the identity of p.
func Ptr[T any](d *Digest, p *T) { d.Int(int64(uintptr(unsafe.Pointer(p)))) }

// Bytes folds in the identity of b's memory: its first byte's address
// and its length.
func (d *Digest) Bytes(b []byte) {
	if len(b) > 0 {
		Ptr(d, &b[0])
	}
	d.Int(int64(len(b)))
}
