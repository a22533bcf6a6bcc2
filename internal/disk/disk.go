// Package disk provides simulated block devices: mechanical SCSI disks
// with seek, rotational latency, media-rate transfers and an on-drive
// read-ahead cache (modelled on DEC's RZ56 and RZ58, the drives
// measured in the paper), and a RAM disk (a block driver over main
// memory, as the paper built to test splice against a very fast
// device).
//
// A device accepts requests through the buf.Device Strategy interface,
// services them one at a time in virtual time in C-LOOK elevator order
// (as 4.3BSD's disksort sorted every drive queue), which keeps the
// buffer cache's clustered dirty runs contiguous at the head, and
// completes each by raising a device interrupt that runs buf.Biodone,
// which is where splice's B_CALL handlers execute.
package disk

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"kdp/internal/buf"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// Params describes a disk model. All rates are bytes per second.
type Params struct {
	Name      string
	BlockSize int   // native block size (matches the buffer cache)
	Blocks    int64 // capacity in blocks

	// Mechanical characteristics; all zero for a RAM disk.
	RotationMs   float64 // full platter rotation in milliseconds
	AvgSeekMs    float64 // average seek time in milliseconds
	MaxSeekMs    float64 // full-stroke seek in milliseconds
	TrackSkewMs  float64 // head/track switch penalty on contiguous runs crossing a track
	BlocksPerTrk int64   // blocks per track (for skew modelling)

	MediaRate float64 // to/from media transfer rate
	BusRate   float64 // host transfer rate (SCSI bus / pseudo-DMA)

	// On-drive read-ahead cache.
	CacheBytes    int // total read-ahead cache size
	CacheSegments int // number of independent read-ahead segments

	// Fixed controller/request overhead (command decode, DMA setup).
	Overhead sim.Duration

	// SyncCPU marks a pseudo-device whose strategy routine moves the
	// data synchronously with the CPU (the paper's RAM disk driver: a
	// bcopy to/from kernel BSS memory). Such requests complete inline
	// — no queueing, no completion interrupt, no sleeping in biowait —
	// and charge CPUCopyRate-paced time to whoever called strategy.
	SyncCPU bool

	// CPUCopyRate is the kernel memory copy bandwidth of a SyncCPU
	// device, in bytes per second.
	CPUCopyRate float64
}

// RZ56 returns the parameters of DEC's RZ56 SCSI disk as given in the
// paper: 8.3ms average rotational latency (3600 RPM), 16ms average
// seek, 1.66MB/s media rate, 64KB single-segment read-ahead cache.
func RZ56(blocks int64, blockSize int) Params {
	return Params{
		Name: "rz56", BlockSize: blockSize, Blocks: blocks,
		RotationMs: 16.6, AvgSeekMs: 16, MaxSeekMs: 35,
		TrackSkewMs: 1.2, BlocksPerTrk: 6,
		MediaRate: 1.66e6, BusRate: 2.5e6,
		CacheBytes: 64 << 10, CacheSegments: 1,
		Overhead: 700 * sim.Microsecond,
	}
}

// RZ58 returns the parameters of DEC's RZ58: 5.6ms average rotational
// latency (5400 RPM), under-12.5ms average seek, ~2.1MB/s media rate,
// 256KB read-ahead cache segmented into 4 read-ahead requests.
func RZ58(blocks int64, blockSize int) Params {
	return Params{
		Name: "rz58", BlockSize: blockSize, Blocks: blocks,
		RotationMs: 11.1, AvgSeekMs: 12.5, MaxSeekMs: 28,
		TrackSkewMs: 0.9, BlocksPerTrk: 8,
		MediaRate: 2.1e6, BusRate: 4.0e6,
		CacheBytes: 256 << 10, CacheSegments: 4,
		Overhead: 500 * sim.Microsecond,
	}
}

// RAMDisk returns the parameters of the paper's RAM disk driver: a
// block device over 16MB of statically allocated kernel memory. Its
// strategy routine is a synchronous CPU bcopy (there is no hardware to
// DMA from kernel BSS), so requests complete inline in the caller's
// context: a read/write copier burns CPU on it, while splice pays for
// it at interrupt level. The copy rate reflects cache-hot kernel
// buffer copies with the R3000's write buffers streaming.
func RAMDisk(blocks int64, blockSize int) Params {
	return Params{
		Name: "ram", BlockSize: blockSize, Blocks: blocks,
		MediaRate: 80e6, BusRate: 80e6,
		Overhead:    40 * sim.Microsecond,
		SyncCPU:     true,
		CPUCopyRate: 80e6,
	}
}

// Kind names one of the paper's three device types. The kinds table
// below is the one place a type's name, model and default layout are
// declared; everything that selects a device by name or walks the
// types ranges over it.
type Kind int

// The measured device types, in the paper's table order.
const (
	KindRAM Kind = iota
	KindRZ58
	KindRZ56
)

var kinds = [...]struct {
	name   string
	params func(blocks int64, blockSize int) Params
	// interleave is the default FFS allocation stride on this device:
	// 2 for mechanical disks (the 4.2BSD rotdelay layout), 1 for the
	// RAM disk (no rotation to outrun).
	interleave int
}{
	KindRAM:  {"RAM", RAMDisk, 1},
	KindRZ58: {"RZ58", RZ58, 2},
	KindRZ56: {"RZ56", RZ56, 2},
}

// Kinds lists the device types in the paper's table order.
func Kinds() []Kind {
	all := make([]Kind, len(kinds))
	for i := range all {
		all[i] = Kind(i)
	}
	return all
}

// KindNames is the comma-separated list of type names, for flag help.
func KindNames() string {
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = kinds[i].name
	}
	return strings.Join(names, ",")
}

// ParseKind returns the device type called name (case-insensitive).
func ParseKind(name string) (Kind, error) {
	for i := range kinds {
		if strings.EqualFold(name, kinds[i].name) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown disk type %q (want one of %s)", name, KindNames())
}

func (k Kind) String() string { return kinds[k].name }

// Params returns the disk model parameters for this kind.
func (k Kind) Params(blocks int64, blockSize int) Params {
	return kinds[k].params(blocks, blockSize)
}

// Interleave returns the kind's default FFS allocation stride.
func (k Kind) Interleave() int { return kinds[k].interleave }

// Disk is a simulated block device. It implements buf.Device.
type Disk struct {
	k     *kernel.Kernel
	cache *buf.Cache
	p     Params
	// blocks is the platter: one reference per block, nil for a block
	// never written, which reads as zeros. A transfer moves a reference
	// (buf.Cache.Load, buf.Buf.Lend), so the platter, the cache and other
	// platters share the bytes, copy-on-write. nil after Release.
	blocks []*sim.Block
	// qmem holds the waiting requests from qhead on (queue), sorted by
	// block, in arrival order among equal blocks, as 4.3BSD's disksort
	// kept a drive queue; arrivals numbers them, so a crash can fail them
	// as they came. Taking or inserting a request shifts the shorter side
	// of the queue, the lower one into or out of the free slots before
	// qhead, so an fsync's run of picks off the front costs nothing per
	// pick (enqueue, dequeue).
	qmem     []waiting
	active   bool
	gen      kernel.Gen // the catalog's generation (invariants.go)
	arrivals uint32
	qhead    uint32
	// The drive services one request at a time: cur is the one whose
	// completion event is scheduled, onComplete the handler of every
	// such event, bound once.
	cur        *buf.Buf
	onComplete func()

	headBlk  int64 // current head position (block)
	segments []raSegment

	// Fault sites in the kernel fault plan (see fault.go).
	siteRd, siteWr *kernel.Site

	// Counters no event carries; the trace counts the rest.
	seeks     int64
	cacheHits int64
	nerrors   int64
}

// raSegment is one read-ahead segment of the drive cache: after a media
// read finishes at block b, the drive keeps streaming [b+1, limit) into
// the segment at media rate.
type raSegment struct {
	start     int64    // first block covered
	limit     int64    // exclusive upper bound (cache capacity)
	fillFrom  int64    // first block being filled by streaming
	fillStart sim.Time // when streaming began
	lastUse   sim.Time
	valid     bool
}

// New creates a disk attached to kernel k. The disk is inert until the
// buffer cache whose Biodone completes its requests is registered with
// SetCache; machine.New does both.
func New(k *kernel.Kernel, p Params) *Disk {
	if p.BlockSize <= 0 || p.Blocks <= 0 {
		panic("disk: bad geometry")
	}
	d := &Disk{
		k:      k,
		p:      p,
		blocks: sim.NewTable[*sim.Block](int(p.Blocks)),
		siteRd: k.Faults().Site("disk." + p.Name + ".rderr"),
		siteWr: k.Faults().Site("disk." + p.Name + ".wrerr"),
	}
	if p.CacheSegments > 0 {
		d.segments = make([]raSegment, p.CacheSegments)
	}
	d.onComplete = d.complete
	return d
}

// SetCache attaches the buffer cache whose Biodone completes requests.
func (d *Disk) SetCache(c *buf.Cache) { d.cache = c }

// Params returns the disk's model parameters.
func (d *Disk) Params() Params { return d.p }

// DevName implements buf.Device.
func (d *Disk) DevName() string { return d.p.Name }

// DevBlockSize implements buf.Device.
func (d *Disk) DevBlockSize() int { return d.p.BlockSize }

// DevBlocks implements buf.Device.
func (d *Disk) DevBlocks() int64 { return d.p.Blocks }

// PlatterBlock implements buf.Device.
func (d *Disk) PlatterBlock(blkno int64) *sim.Block {
	if blkno < 0 || blkno >= int64(len(d.blocks)) {
		return nil
	}
	return d.blocks[blkno]
}

// QueueLen returns the number of requests waiting (excluding active).
func (d *Disk) QueueLen() int { return len(d.queue()) }

// queue returns the waiting requests in block order.
func (d *Disk) queue() []waiting { return d.qmem[d.qhead:] }

// Stats describes what no event carries: the seeks the head made and
// the reads the drive's cache served. Transfers, bytes, busy time and
// queue depth are in the trace: trace.Metrics derives them from the
// disk.* events.
type Stats struct {
	Seeks     int64
	CacheHits int64
}

// Stats returns a snapshot of device counters.
func (d *Disk) Stats() Stats {
	return Stats{Seeks: d.seeks, CacheHits: d.cacheHits}
}

// Strategy implements buf.Device: the request is queued and serviced in
// C-LOOK order (startNext); completion raises a device interrupt that
// calls buf.Biodone. A SyncCPU device completes it inline instead.
func (d *Disk) Strategy(b *buf.Buf) {
	if b.Bcount <= 0 || b.Bcount > d.p.BlockSize {
		panic(fmt.Sprintf("disk %s: bad bcount %d", d.p.Name, b.Bcount))
	}
	d.span(b.Blkno, b.Bcount) // panics unless the transfer lies on a live platter
	if d.p.SyncCPU {
		d.completeSync(b)
		return
	}
	i, _ := slices.BinarySearchFunc(d.queue(), b.Blkno, func(q waiting, blk int64) int {
		if q.b.Blkno <= blk {
			return -1 // after every request for the same block
		}
		return 1
	})
	d.arrivals++
	d.enqueue(i, waiting{b, d.arrivals})
	d.gen.Bump()
	d.k.TraceEmit(trace.KindDiskQueue, 0, b.Blkno, int64(d.QueueLen()), d.p.Name)
	if !d.active {
		d.active = true
		d.k.Hold() // keep the machine alive while the queue drains
		d.startNext()
	}
}

// completeSync services a SyncCPU (RAM disk) request inline: the
// driver's bcopy burns CPU in the calling context, then biodone runs
// immediately — no completion interrupt ever fires.
func (d *Disk) completeSync(b *buf.Buf) {
	svc := d.p.Overhead + sim.BytesAt(int64(b.Bcount), d.p.CPUCopyRate)
	d.k.TraceEmit(trace.KindDiskStart, 0, b.Blkno, int64(svc), d.p.Name)
	d.k.StealCPU(svc)
	d.transfer(b)
	d.traceCompletion(b)
	if d.cache == nil {
		panic("disk: no buffer cache attached")
	}
	d.cache.Biodone(b)
}

// transfer moves the request's block between buffer and platter, or
// fails it if its fault site fires. A read makes the buffer share the
// platter's block, a whole-block write the platter share the buffer's;
// a partial write, or a header over memory of its own (splice's NoShare
// ablation), is copied in.
func (d *Disk) transfer(b *buf.Buf) {
	switch {
	case d.checkFault(b):
		d.failTransfer(b)
	case b.Flags&buf.BRead != 0:
		d.cache.Load(b, d.blocks[b.Blkno])
	default:
		if blk := b.Lend(); blk != nil && b.Bcount == d.p.BlockSize {
			blk.Ref()
			d.k.Spares().Drop(d.blocks[b.Blkno])
			d.blocks[b.Blkno] = blk
		} else {
			d.WriteRaw(b.Blkno, b.Data[:b.Bcount])
		}
	}
}

// startNext begins servicing the C-LOOK elevator's choice of the
// waiting requests and schedules its completion event.
func (d *Disk) startNext() {
	b := d.dequeue(d.elevatorPick())
	svc := d.serviceTime(b)
	d.k.TraceEmit(trace.KindDiskStart, 0, b.Blkno, int64(svc), d.p.Name)
	d.cur = b
	d.k.Engine().Schedule(svc, "disk", d.onComplete)
}

// elevatorPick returns the queue index of the C-LOOK choice: the
// request with the smallest block number at or beyond the head, or the
// smallest outstanding block when the upward sweep is exhausted — the
// earliest to arrive of those for that block.
func (d *Disk) elevatorPick() int {
	q := d.queue()
	i, _ := slices.BinarySearchFunc(q, d.headBlk, func(w waiting, blk int64) int {
		return cmp.Compare(w.b.Blkno, blk)
	})
	if i == len(q) {
		return 0
	}
	return i
}

// enqueue inserts w at queue index i, shifting the shorter side: the
// requests before i down into the free slot before the queue, if there
// is one, or those from i on up.
func (d *Disk) enqueue(i int, w waiting) {
	q := d.queue()
	if h := int(d.qhead); h > 0 && i < len(q)-i {
		copy(d.qmem[h-1:], q[:i])
		d.qmem[h-1+i] = w
		d.qhead--
		return
	}
	if len(d.qmem) == cap(d.qmem) && d.qhead > 0 {
		// No room past the end, but some before the start: slide to it.
		n := copy(d.qmem, q)
		clear(d.qmem[n:])
		d.qmem, d.qhead = d.qmem[:n], 0
	}
	d.qmem = slices.Insert(d.qmem, int(d.qhead)+i, w)
}

// dequeue takes request i off the queue and returns it, shifting the
// shorter side and clearing the slot it leaves, so nothing keeps a
// serviced request reachable.
func (d *Disk) dequeue(i int) *buf.Buf {
	q := d.queue()
	b := q[i].b
	if n := len(q); i < n-1-i {
		copy(q[1:], q[:i])
		q[0] = waiting{}
		d.qhead++
	} else {
		copy(q[i:], q[i+1:])
		q[n-1] = waiting{}
		d.qmem = d.qmem[:len(d.qmem)-1]
	}
	if int(d.qhead) == len(d.qmem) {
		d.qmem, d.qhead = d.qmem[:0], 0
	}
	return b
}

// waiting is a queued request and its arrival number.
type waiting struct {
	b   *buf.Buf
	seq uint32
}

// complete finishes the active transfer: data is moved at completion
// time, then the completion interrupt runs biodone (and any splice
// handler hanging off it).
func (d *Disk) complete() {
	b := d.cur
	d.cur = nil
	d.gen.Bump() // the queue shrinks below, or the drive goes idle
	d.transfer(b)
	d.headBlk = b.Blkno + 1
	d.traceCompletion(b)
	d.k.Interrupt(func() {
		if d.cache == nil {
			panic("disk: no buffer cache attached")
		}
		d.cache.Biodone(b)
	})
	if d.QueueLen() > 0 {
		d.startNext()
	} else {
		d.active = false
		d.k.Release()
	}
}

// traceCompletion emits the completion event matching the transfer's
// outcome (read, write, or error).
func (d *Disk) traceCompletion(b *buf.Buf) {
	switch {
	case b.Flags&buf.BError != 0:
		d.k.TraceEmit(trace.KindDiskError, 0, b.Blkno, 0, d.p.Name)
	case b.Flags&buf.BRead != 0:
		d.k.TraceEmit(trace.KindDiskRead, 0, b.Blkno, int64(b.Bcount), d.p.Name)
	default:
		d.k.TraceEmit(trace.KindDiskWrite, 0, b.Blkno, int64(b.Bcount), d.p.Name)
	}
}

// Busy reports whether a transfer is in progress (or queued). Crash
// recovery uses it to wait out the point-of-no-return request.
func (d *Disk) Busy() bool { return d.active }

// Crash models the device side of a power cut: every queued request is
// lost (the data never reaches the platter; the buffer completes with
// an error so the cache can discard it), and the drive's volatile
// read-ahead cache is cleared. The request being serviced — if any —
// is past the point of no return and still completes: its sector lands
// on the platter when the already-scheduled completion event fires.
// Returns the number of dropped requests.
func (d *Disk) Crash() int {
	dropped := d.queue()
	d.qmem, d.qhead = nil, 0
	d.gen.Bump()
	slices.SortFunc(dropped, func(x, y waiting) int { return cmp.Compare(int32(x.seq-y.seq), 0) })
	for _, q := range dropped {
		b := q.b
		// BError is read by no invariant catalog: these writes need
		// no generation bump (Biodone below bumps the cache's anyway).
		b.Flags |= buf.BError
		b.Err = kernel.ErrIO
		d.traceCompletion(b)
		d.k.Interrupt(func() {
			if d.cache == nil {
				panic("disk: no buffer cache attached")
			}
			d.cache.Biodone(b)
		})
	}
	for i := range d.segments {
		d.segments[i] = raSegment{}
	}
	return len(dropped)
}

// span returns the blocks [blkno, end) that n bytes at blkno cover: the
// one test, for every route to the platter, that the disk still has it
// and the bytes lie on it.
func (d *Disk) span(blkno int64, n int) (end int64) {
	bs := int64(d.p.BlockSize)
	switch {
	case d.blocks == nil:
		panic("disk: " + d.p.Name + ": used after Release")
	case blkno < 0 || blkno >= d.p.Blocks || blkno*bs+int64(n) > d.p.Blocks*bs:
		panic(fmt.Sprintf("disk: %s: %d bytes at block %d are off the device", d.p.Name, n, blkno))
	}
	return blkno + (int64(n)+bs-1)/bs
}

// ReadRaw copies block contents directly out of the platter (no
// simulated time: a host-side helper).
func (d *Disk) ReadRaw(blkno int64, p []byte) {
	for end := d.span(blkno, len(p)); blkno < end; blkno++ {
		var n int
		if blk := d.blocks[blkno]; blk != nil {
			n = copy(p, blk.Bytes)
		} else {
			n = min(len(p), d.p.BlockSize)
			clear(p[:n])
		}
		p = p[n:]
	}
}

// WriteRaw installs block contents directly, likewise: into a block the
// platter alone references, in place, and otherwise into a fresh block
// holding what the entry read as, so whoever shares the old one keeps
// its bytes.
func (d *Disk) WriteRaw(blkno int64, p []byte) {
	for end := d.span(blkno, len(p)); blkno < end; blkno++ {
		blk := d.blocks[blkno]
		if blk == nil || blk.Shared() {
			fresh := d.k.Spares().Get(d.p.BlockSize)
			switch {
			case len(p) >= d.p.BlockSize:
			case blk != nil:
				copy(fresh.Bytes, blk.Bytes)
			default:
				clear(fresh.Bytes)
			}
			d.k.Spares().Drop(blk)
			blk, d.blocks[blkno] = fresh, fresh
		}
		p = p[copy(blk.Bytes, p):]
	}
}

// Release ends the disk's life: it drops its reference to every block,
// and what nothing else references rests, cleared, for the next machine,
// as does the platter's table. Later use panics.
func (d *Disk) Release() {
	d.span(0, 0) // panics on a second Release
	for _, blk := range d.blocks {
		blk.Unref()
	}
	sim.RestTable(d.blocks)
	d.blocks = nil
}
