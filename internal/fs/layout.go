// Package fs implements a small FFS-style filesystem on a simulated
// block device: a superblock, a block-allocation bitmap, a fixed inode
// table, directories, and files with direct, single- and
// double-indirect block pointers.
//
// It exists because splice is implemented against the filesystem's
// bmap() interface: the paper builds, per spliced file, the complete
// table of physical block numbers by successive bmap() calls (§5.2),
// and maps the destination with a special allocating bmap that skips
// the zero-fill delayed write of freshly allocated blocks. Both
// variants are provided here.
//
// All metadata I/O goes through the system buffer cache, so metadata
// costs (bitmap reads, inode writes, indirect blocks) are charged in
// virtual time like any other I/O.
package fs

import (
	"encoding/binary"
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/sim"
)

// On-disk layout constants.
const (
	// Magic identifies a formatted volume.
	Magic = 0x19931F5 // "1993 filesystem"

	// InodeSize is the on-disk inode record size.
	InodeSize = 128

	// NDirect is the number of direct block pointers per inode.
	NDirect = 12

	// DirentSize is the fixed directory entry size.
	DirentSize = 64

	// MaxNameLen is the longest file name a directory entry can hold.
	MaxNameLen = DirentSize - 6

	// RootIno is the inode number of the root directory. Inode 0 is
	// reserved as "no inode".
	RootIno = 1

	// Inode modes.
	ModeFree = 0
	ModeFile = 1
	ModeDir  = 2
)

// Superblock describes the volume geometry. Block 0 of the device
// holds its encoded form.
type Superblock struct {
	Magic       uint32
	BlockSize   uint32
	TotalBlocks uint32
	NInodes     uint32
	BitmapStart uint32 // first bitmap block
	BitmapLen   uint32 // bitmap blocks
	ITableStart uint32 // first inode-table block
	ITableLen   uint32 // inode-table blocks
	DataStart   uint32 // first data block
	FreeBlocks  uint32
	FreeInodes  uint32
}

func (sb *Superblock) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], sb.Magic)
	le.PutUint32(p[4:], sb.BlockSize)
	le.PutUint32(p[8:], sb.TotalBlocks)
	le.PutUint32(p[12:], sb.NInodes)
	le.PutUint32(p[16:], sb.BitmapStart)
	le.PutUint32(p[20:], sb.BitmapLen)
	le.PutUint32(p[24:], sb.ITableStart)
	le.PutUint32(p[28:], sb.ITableLen)
	le.PutUint32(p[32:], sb.DataStart)
	le.PutUint32(p[36:], sb.FreeBlocks)
	le.PutUint32(p[40:], sb.FreeInodes)
}

// inodeBlock returns the inode-table block holding inode ino and the
// inode's byte offset in it.
func (sb *Superblock) inodeBlock(ino uint32) (blk int64, off int) {
	per := sb.BlockSize / InodeSize
	return int64(sb.ITableStart) + int64(ino/per), int(ino%per) * InodeSize
}

func (sb *Superblock) decode(p []byte) error {
	le := binary.LittleEndian
	sb.Magic = le.Uint32(p[0:])
	if sb.Magic != Magic {
		return fmt.Errorf("fs: bad magic %#x", sb.Magic)
	}
	sb.BlockSize = le.Uint32(p[4:])
	sb.TotalBlocks = le.Uint32(p[8:])
	sb.NInodes = le.Uint32(p[12:])
	sb.BitmapStart = le.Uint32(p[16:])
	sb.BitmapLen = le.Uint32(p[20:])
	sb.ITableStart = le.Uint32(p[24:])
	sb.ITableLen = le.Uint32(p[28:])
	sb.DataStart = le.Uint32(p[32:])
	sb.FreeBlocks = le.Uint32(p[36:])
	sb.FreeInodes = le.Uint32(p[40:])
	return nil
}

// dinode is the on-disk inode image. The in-core Inode embeds it, so
// iget decodes straight into the inode and iupdate encodes from it.
type dinode struct {
	mode   uint16
	nlink  uint16
	size   int64
	direct [NDirect]uint32
	indir  uint32
	dindir uint32
}

func (di *dinode) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint16(p[0:], di.mode)
	le.PutUint16(p[2:], di.nlink)
	le.PutUint64(p[4:], uint64(di.size))
	for i, d := range di.direct {
		le.PutUint32(p[12+4*i:], d)
	}
	le.PutUint32(p[12+4*NDirect:], di.indir)
	le.PutUint32(p[16+4*NDirect:], di.dindir)
}

func (di *dinode) decode(p []byte) {
	le := binary.LittleEndian
	di.mode = le.Uint16(p[0:])
	di.nlink = le.Uint16(p[2:])
	di.size = int64(le.Uint64(p[4:]))
	for i := range di.direct {
		di.direct[i] = le.Uint32(p[12+4*i:])
	}
	di.indir = le.Uint32(p[12+4*NDirect:])
	di.dindir = le.Uint32(p[16+4*NDirect:])
}

// root returns the inode's block pointer i: direct block i below
// NDirect, then the single- and the double-indirect block.
func (di *dinode) root(i int64) *uint32 {
	switch i {
	case NDirect:
		return &di.indir
	case NDirect + 1:
		return &di.dindir
	}
	return &di.direct[i]
}

// dirent is a fixed-size directory entry: ino(4) nameLen(2) name(58).
type dirent struct {
	Ino  uint32
	Name string
}

func encodeDirent(p []byte, de dirent) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], de.Ino)
	le.PutUint16(p[4:], uint16(len(de.Name)))
	copy(p[6:DirentSize], de.Name)
	for i := 6 + len(de.Name); i < DirentSize; i++ {
		p[i] = 0
	}
}

func decodeDirent(p []byte) dirent {
	le := binary.LittleEndian
	n := int(le.Uint16(p[4:]))
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return dirent{Ino: le.Uint32(p[0:]), Name: string(p[6 : 6+n])}
}

// Mkfs formats the device with a fresh filesystem containing an empty
// root directory. Formatting is a host-side operation (it writes the
// raw media directly and consumes no simulated time), standing in for a
// volume that was formatted before the experiment began.
//
// ninodes is rounded up to fill whole inode-table blocks.
func Mkfs(dev RawDevice, ninodes int) (*Superblock, error) {
	bsize := dev.DevBlockSize()
	blocks := dev.DevBlocks()
	if blocks < 8 {
		return nil, fmt.Errorf("fs: device too small (%d blocks)", blocks)
	}
	inoPerBlk := bsize / InodeSize
	itableLen := (ninodes + inoPerBlk - 1) / inoPerBlk
	ninodes = itableLen * inoPerBlk
	bitsPerBlk := bsize * 8
	bitmapLen := (int(blocks) + bitsPerBlk - 1) / bitsPerBlk
	dataStart := 1 + bitmapLen + itableLen
	if int64(dataStart+1) >= blocks {
		return nil, fmt.Errorf("fs: no room for data blocks")
	}

	sb := &Superblock{
		Magic:       Magic,
		BlockSize:   uint32(bsize),
		TotalBlocks: uint32(blocks),
		NInodes:     uint32(ninodes),
		BitmapStart: 1,
		BitmapLen:   uint32(bitmapLen),
		ITableStart: uint32(1 + bitmapLen),
		ITableLen:   uint32(itableLen),
		DataStart:   uint32(dataStart),
	}

	// Root directory: inode 1, empty, occupying no data blocks yet.
	sb.FreeInodes = uint32(ninodes) - 2 // ino 0 reserved, ino 1 root
	sb.FreeBlocks = uint32(int(blocks) - dataStart)

	// Superblock. The scratch block goes back to sim's recycler.
	scratch := sim.NewBlock(bsize)
	defer scratch.Unref()
	blk := scratch.Bytes
	sb.encode(blk)
	dev.WriteRaw(0, blk)

	// Bitmap: metadata blocks marked used.
	for i := 0; i < bitmapLen; i++ {
		clear(blk)
		base := i * bitsPerBlk
		for abs := base; abs < min(base+bitsPerBlk, dataStart, int(blocks)); abs++ {
			b := abs - base
			blk[b/8] |= 1 << uint(b%8)
		}
		dev.WriteRaw(int64(1+i), blk)
	}

	// Inode table: all free except the root.
	for i := 0; i < itableLen; i++ {
		clear(blk)
		if i == 0 {
			root := dinode{mode: ModeDir, nlink: 1}
			root.encode(blk[RootIno*InodeSize:])
		}
		dev.WriteRaw(int64(1+bitmapLen+i), blk)
	}

	// Data region left as-is (allocation zero-fills when required).
	return sb, nil
}

// RawDevice is the formatting-time device interface: buf.Device plus
// direct media access.
type RawDevice interface {
	buf.Device
	WriteRaw(blkno int64, p []byte)
	ReadRaw(blkno int64, p []byte)
}
