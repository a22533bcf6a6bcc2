package disk

import (
	"math"

	"kdp/internal/buf"
	"kdp/internal/sim"
)

// serviceTime computes how long the drive takes to service request b,
// advancing the drive-cache model state as a side effect.
func (d *Disk) serviceTime(b *buf.Buf) sim.Duration {
	n := int64(b.Bcount)
	if d.p.RotationMs == 0 {
		// RAM disk: fixed driver overhead plus pseudo-DMA at memory
		// speed. No mechanics, no drive cache.
		return d.p.Overhead + sim.BytesAt(n, d.p.BusRate)
	}
	if b.Flags&buf.BRead != 0 {
		return d.readTime(b.Blkno, n)
	}
	return d.writeTime(b.Blkno, n)
}

func (d *Disk) readTime(blkno, n int64) sim.Duration {
	now := d.k.Now()
	// Drive cache lookup.
	if seg := d.findSegment(blkno); seg != nil {
		seg.lastUse = now
		d.cacheHits++
		avail := d.segAvailable(seg, now)
		bus := sim.BytesAt(n, d.p.BusRate)
		if blkno < avail {
			// Fully prefetched: command overhead + bus transfer.
			return d.p.Overhead + bus
		}
		// The drive is still streaming toward this block: wait for the
		// media to reach the end of the block, then transfer.
		blockMedia := sim.BytesAt(int64(d.p.BlockSize), d.p.MediaRate)
		ready := seg.fillStart.Add(sim.Duration(blkno+1-seg.fillFrom) * blockMedia)
		wait := ready.Sub(now)
		if wait < 0 {
			wait = 0
		}
		return d.p.Overhead + wait + bus
	}
	// Miss: mechanical access, then start a fresh read-ahead segment.
	svc := d.p.Overhead + d.mechanical(blkno) + sim.BytesAt(n, d.p.MediaRate)
	d.startSegment(blkno, now.Add(svc))
	return svc
}

func (d *Disk) writeTime(blkno, n int64) sim.Duration {
	// Writes invalidate any overlapping read-ahead state and interrupt
	// streaming.
	for i := range d.segments {
		s := &d.segments[i]
		if s.valid && blkno >= s.start-1 && blkno < s.limit {
			s.valid = false
		}
	}
	return d.p.Overhead + d.mechanical(blkno) + sim.BytesAt(n, d.p.MediaRate)
}

// mechanical returns seek + rotational positioning time to reach blkno
// from the current head position. Contiguous accesses pay only a track
// skew when they cross a track boundary; near-contiguous forward
// accesses (interleaved FFS layout) wait for the platter to pass over
// the skipped blocks rather than paying a full seek + rotation.
func (d *Disk) mechanical(blkno int64) sim.Duration {
	if blkno == d.headBlk {
		if d.p.BlocksPerTrk > 0 && blkno%d.p.BlocksPerTrk == 0 {
			return msec(d.p.TrackSkewMs)
		}
		return 0
	}
	if gap := blkno - d.headBlk; gap > 0 && gap <= 8 {
		passOver := sim.Duration(gap) * sim.BytesAt(int64(d.p.BlockSize), d.p.MediaRate)
		if d.p.BlocksPerTrk > 0 && blkno/d.p.BlocksPerTrk != d.headBlk/d.p.BlocksPerTrk {
			passOver += msec(d.p.TrackSkewMs)
		}
		return passOver
	}
	d.seeks++
	dist := blkno - d.headBlk
	if dist < 0 {
		dist = -dist
	}
	frac := float64(dist) / float64(d.p.Blocks)
	minSeek := d.p.AvgSeekMs / 3
	seekMs := minSeek + (d.p.MaxSeekMs-minSeek)*math.Sqrt(frac)
	rotMs := d.k.Rand().Float64() * d.p.RotationMs
	return msec(seekMs) + msec(rotMs)
}

func msec(ms float64) sim.Duration {
	return sim.Duration(ms * float64(sim.Millisecond))
}

// segBlocks returns the per-segment capacity in blocks.
func (d *Disk) segBlocks() int64 {
	if d.p.CacheSegments == 0 {
		return 0
	}
	return int64(d.p.CacheBytes / d.p.CacheSegments / d.p.BlockSize)
}

// findSegment returns the read-ahead segment covering blkno, if any.
func (d *Disk) findSegment(blkno int64) *raSegment {
	for i := range d.segments {
		s := &d.segments[i]
		if s.valid && blkno >= s.start && blkno < s.limit {
			return s
		}
	}
	return nil
}

// segAvailable returns the first block NOT yet streamed into the
// segment at time t.
func (d *Disk) segAvailable(s *raSegment, t sim.Time) int64 {
	blockMedia := sim.BytesAt(int64(d.p.BlockSize), d.p.MediaRate)
	if blockMedia <= 0 {
		return s.limit
	}
	done := int64(t.Sub(s.fillStart) / blockMedia)
	if done < 0 {
		done = 0
	}
	avail := s.fillFrom + done
	if avail > s.limit {
		avail = s.limit
	}
	return avail
}

// startSegment begins read-ahead streaming after a media read of blkno
// completes at time fillStart, recycling the least-recently-used
// segment.
func (d *Disk) startSegment(blkno int64, fillStart sim.Time) {
	if len(d.segments) == 0 {
		return
	}
	victim := &d.segments[0]
	for i := range d.segments {
		s := &d.segments[i]
		if !s.valid {
			victim = s
			break
		}
		if s.lastUse < victim.lastUse {
			victim = s
		}
	}
	*victim = raSegment{
		start:     blkno + 1,
		limit:     blkno + 1 + d.segBlocks(),
		fillFrom:  blkno + 1,
		fillStart: fillStart,
		lastUse:   fillStart,
		valid:     true,
	}
	if victim.limit > d.p.Blocks {
		victim.limit = d.p.Blocks
	}
}
