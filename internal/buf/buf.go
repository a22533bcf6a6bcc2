// Package buf implements a 4.2BSD-style block buffer cache: fixed-size
// buffers addressed by (device, physical block), a hash table for
// lookup, an LRU free list, delayed and asynchronous writes, and
// interrupt-time completion via biodone with optional B_CALL handlers.
//
// The splice mechanism (internal/splice) is written against this
// interface exactly as the paper describes (§5.1): bread, getblk,
// bawrite, brelse, plus non-blocking variants with the biowait calls
// removed and a getblk variant that allocates a header but no data
// memory. A buffer can also be held as the memory of a mapped file page
// (Hold/Unhold): the page is the buffer, so there is one copy of the
// block and one dirty set.
package buf

import (
	"fmt"

	"kdp/internal/kernel"
	"kdp/internal/sim"
)

// Buffer flags, following the 4.2BSD names.
const (
	BRead   = 1 << iota // I/O direction is read (else write)
	BDone               // I/O complete; contents valid
	BBusy               // owned by someone; not on the free list
	BWanted             // someone is sleeping waiting for this buffer
	BDelwri             // delayed write: dirty, write before reuse
	BAsync              // release the buffer at I/O completion
	BCall               // invoke Iodone at I/O completion
	BInval              // contents invalid; do not cache
	BError              // I/O failed
	BAge                // stale: recycle preferentially
	BNoMem              // header only; Data aliases another buffer (splice)

	// BReadahead marks a buffer fetched asynchronously ahead of any
	// reader (StartReadahead). The flag survives I/O completion and is
	// consumed by the first getblk that claims the buffer (counted as a
	// readahead hit) or cleared when the buffer is recycled or
	// invalidated unreferenced (counted as readahead waste).
	BReadahead

	// BHeld marks a buffer whose data is a resident mapped page (Hold):
	// it stays hashed and, while idle, off the free list, so getblk never
	// recycles it until the page lets go (Unhold).
	BHeld
)

// Device is the block-device driver interface. Strategy enqueues the
// request described by b and returns immediately; the driver completes
// it later by calling Biodone at interrupt level.
type Device interface {
	// Strategy queues the I/O request. The direction is b.Flags&BRead.
	Strategy(b *Buf)
	// DevBlockSize returns the device's native block size in bytes.
	DevBlockSize() int
	// DevBlocks returns the device capacity in blocks.
	DevBlocks() int64
	// DevName identifies the device in traces and errors.
	DevName() string
	// PlatterBlock returns the block the device's platter holds at
	// blkno, shared with whatever buffer last read or wrote it, or nil
	// if none is shared (a device that copies).
	PlatterBlock(blkno int64) *sim.Block
}

// Buf is a buffer header, possibly with attached data memory. The
// Splice* fields are the "new fields in the buffer header structure"
// the paper adds (§5.4) so completion handlers can find the splice
// descriptor and logical block a buffer belongs to.
//
// The fields the free-list and hash walks read come first and fill the
// header's first 64 bytes, one cache line.
type Buf struct {
	Flags    int
	Dev      Device
	Blkno    int64 // physical block number on Dev
	hashNext *Buf
	freePrev *Buf
	freeNext *Buf
	hashed   bool
	onFree   bool
	// slot is 1 + the buffer's index in its cache's pool, 0 for a header:
	// its bit in the touched set (touched.go).
	slot uint16
	// stamp orders the free list for the touched walk: it increases from
	// freeHead to freeTail (freePush hands it out).
	stamp int32

	Bcount int // transfer length in bytes
	// Data is blk's bytes: read it freely, store into it only through
	// Cache.Store. A header borrows the block it shares (Cache.Share)
	// and holds no reference; a pool buffer holds one.
	Data []byte
	blk  *sim.Block
	Err  error

	// Iodone is invoked at interrupt level when the I/O completes and
	// BCall is set.
	Iodone func(k *kernel.Kernel, b *Buf)

	// SpliceDesc is the splice descriptor holding the buffer, if any.
	SpliceDesc any
	// SpliceLblk is the logical block number within the spliced file.
	SpliceLblk int64
	// SpliceN is the logical payload length of a splice write header.
	// Splice always transfers whole physical blocks (Bcount) so the
	// unused tail of a final partial block lands on disk as zeros —
	// the same "bytes beyond EOF read back as zeros" invariant the
	// ordinary write path maintains via zero-filled cache buffers —
	// but only SpliceN bytes count toward the transfer.
	SpliceN int
	// SplicePeer links a write-side header to the read-side buffer
	// whose data area it shares.
	SplicePeer *Buf

	pool *Cache
}

func (b *Buf) String() string {
	return fmt.Sprintf("buf{%s#%d flags=%#x n=%d}", devName(b.Dev), b.Blkno, b.Flags, b.Bcount)
}

// devName is d's name, "?" for none.
func devName(d Device) string {
	if d == nil {
		return "?"
	}
	return d.DevName()
}

// HasFlags reports whether all the given flags are set.
func (b *Buf) HasFlags(f int) bool { return b.Flags&f == f }
