package fs

import (
	"kdp/internal/kernel"
)

// DirEntry describes one directory member, as ReadDir reports it.
type DirEntry struct {
	Name  string
	Ino   uint32
	IsDir bool
	Size  int64
}

// FileInfo is the stat(2)-style metadata for a path.
type FileInfo struct {
	Ino   uint32
	Size  int64
	IsDir bool
	Nlink int
}

// Stat returns metadata for path.
func (f *FS) Stat(ctx kernel.Ctx, path string) (FileInfo, error) {
	ip, err := f.namei(ctx, path)
	if err != nil {
		return FileInfo{}, err
	}
	info := FileInfo{
		Ino:   ip.ino,
		Size:  ip.size,
		IsDir: ip.mode == ModeDir,
		Nlink: int(ip.nlink),
	}
	return info, f.iput(ctx, ip)
}

// ReadDir lists the directory at path in on-disk order.
func (f *FS) ReadDir(ctx kernel.Ctx, path string) ([]DirEntry, error) {
	dp, err := f.namei(ctx, path)
	if err != nil {
		return nil, err
	}
	defer f.iput(ctx, dp)
	if dp.mode != ModeDir {
		return nil, kernel.ErrNotDir
	}
	bsize := int64(f.sb.BlockSize)
	var entries []DirEntry
	for off := int64(0); off < dp.size; off += DirentSize {
		pblk, _, err := dp.bmap(ctx, off/bsize, false, false)
		if err != nil {
			return nil, err
		}
		if pblk == 0 {
			continue
		}
		b, err := f.cache.Bread(ctx, f.dev, int64(pblk))
		if err != nil {
			return nil, err
		}
		de := decodeDirent(b.Data[off%bsize:])
		f.cache.Brelse(ctx, b)
		if de.Ino == 0 {
			continue
		}
		ip, err := f.iget(ctx, de.Ino)
		if err != nil {
			return nil, err
		}
		entries = append(entries, DirEntry{
			Name:  de.Name,
			Ino:   de.Ino,
			IsDir: ip.mode == ModeDir,
			Size:  ip.size,
		})
		if err := f.iput(ctx, ip); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// StatPath implements kernel.StatFS.
func (f *FS) StatPath(ctx kernel.Ctx, path string) (kernel.StatInfo, error) {
	info, err := f.Stat(ctx, path)
	if err != nil {
		return kernel.StatInfo{}, err
	}
	return kernel.StatInfo{Size: info.Size, IsDir: info.IsDir}, nil
}

// RenamePath implements kernel.RenameFS.
func (f *FS) RenamePath(ctx kernel.Ctx, oldPath, newPath string) error {
	return f.Rename(ctx, oldPath, newPath)
}

var (
	_ kernel.StatFS   = (*FS)(nil)
	_ kernel.RenameFS = (*FS)(nil)
)

// Rename moves oldPath to newPath, replacing an existing regular file
// at the destination (directories cannot be replaced).
func (f *FS) Rename(ctx kernel.Ctx, oldPath, newPath string) error {
	oldDir, oldName, err := f.nameiParent(ctx, oldPath)
	if err != nil {
		return err
	}
	defer f.iput(ctx, oldDir)
	srcIno, _, err := f.dirLookup(ctx, oldDir, oldName)
	if err != nil {
		return err
	}

	newDir, newName, err := f.nameiParent(ctx, newPath)
	if err != nil {
		return err
	}
	defer f.iput(ctx, newDir)

	// Moving a directory under itself would orphan it; this fs only
	// checks direct self-rename (deep cycle checks need ".." walking,
	// which these flat experiment volumes never exercise).
	if oldDir == newDir && oldName == newName {
		return nil
	}

	if dstIno, _, err := f.dirLookup(ctx, newDir, newName); err == nil {
		dst, err := f.iget(ctx, dstIno)
		if err != nil {
			return err
		}
		if dst.mode == ModeDir {
			_ = f.iput(ctx, dst)
			return kernel.ErrIsDir
		}
		newDir.lock(ctx)
		_, err = f.dirRemove(ctx, newDir, newName)
		newDir.unlock()
		if err != nil {
			_ = f.iput(ctx, dst)
			return err
		}
		if dst.nlink > 0 {
			dst.nlink--
		}
		dst.dirty = true
		if err := f.iput(ctx, dst); err != nil {
			return err
		}
	}

	newDir.lock(ctx)
	err = f.dirEnter(ctx, newDir, newName, srcIno)
	newDir.unlock()
	if err != nil {
		return err
	}
	oldDir.lock(ctx)
	_, err = f.dirRemove(ctx, oldDir, oldName)
	oldDir.unlock()
	return err
}
