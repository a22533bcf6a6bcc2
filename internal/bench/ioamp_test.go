package bench

import (
	"cmp"
	"fmt"
	"testing"

	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/server"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// I/O amplification is 1 (ROADMAP item 8(a)), as a checked relation: on
// a cold cache every data path writes each block of the destination
// file to the device exactly once and reads each block of the source
// file at most once. A server's destination is a socket, so for its
// paths only the read half applies, per request.

// ioAmp counts device transfers per block: reads on the source device,
// writes on the destination device. It is a trace sink.
type ioAmp struct {
	src, dst      string
	reads, writes map[int64]int
}

func (a *ioAmp) Emit(ev trace.Event) {
	switch {
	case ev.Kind == trace.KindDiskRead && ev.Name == a.src:
		a.reads[ev.Arg1]++
	case ev.Kind == trace.KindDiskWrite && ev.Name == a.dst:
		a.writes[ev.Arg1]++
	}
}

// check holds the counts to the relation over the two files' data
// blocks.
func (a *ioAmp) check(path string, src, dst []uint32) error {
	for _, b := range dst {
		if n := a.writes[int64(b)]; n != 1 {
			return kernel.Violation("perf-io-amp", "%s: destination block %d written %d times, want once", path, b, n)
		}
	}
	for _, b := range src {
		if n := a.reads[int64(b)]; n > 1 {
			return kernel.Violation("perf-io-amp", "%s: source block %d read %d times, want at most once", path, b, n)
		}
	}
	return nil
}

// dataBlocks returns the data blocks of the file at path, in file order.
func dataBlocks(p *kernel.Proc, path string, blocks int64) ([]uint32, error) {
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	f, err := p.FD(fd)
	if err != nil {
		return nil, err
	}
	return f.Ops().(*fs.File).SpliceMapRead(p.Ctx(), 0, blocks)
}

// ioAmpCopy copies a cold file along mode's data path, counting from the
// cold start on, and checks the relation.
func ioAmpCopy(s Setup, mode workload.CopyMode) (err error) {
	m := NewMachine(s)
	defer m.Release()
	amp := &ioAmp{src: m.Disks[0].DevName(), dst: m.Disks[1].DevName(), reads: map[int64]int{}, writes: map[int64]int{}}
	m.ColdRun("ioamp", 1, func(p *kernel.Proc) {
		m.K.StartTrace(amp)
		mustCopy(p, workload.DefaultCopySpec(SrcPath, DstPath, mode))
		blocks := s.FileBytes / BlockSize
		src, serr := dataBlocks(p, SrcPath, blocks)
		dst, derr := dataBlocks(p, DstPath, blocks)
		if err = cmp.Or(serr, derr); err == nil {
			err = amp.check(fmt.Sprintf("%s %s", s.Disk, mode), src, dst)
		}
	})
	return err
}

// ioAmpServe serves the server sweep's file once, along path, to one
// client from a cold cache, counting from the cold start on, and checks
// the read half of the relation: the request reads each block of the
// file at most once.
func ioAmpServe(path server.Path) (err error) {
	m := serverMachine()
	defer m.Release()
	k := m.K
	amp := &ioAmp{src: m.Disks[0].DevName(), reads: map[int64]int{}}
	net := socket.NewNet(k, socket.Ethernet10())
	st, err := stream.NewTransport(k, net, serverPort)
	Must(err)
	ct, err := stream.NewTransport(k, net, 5001)
	Must(err)
	k.Spawn("boot", func(p *kernel.Proc) {
		Must(m.Boot(p))
		Must(workload.MakeFile(p, serverFile, serverFileBytes, 1))
		Must(workload.ColdStart(p, m.Cache, m.Disks[0]))
		k.StartTrace(amp)
		server.Start(k, server.Config{
			Name: "fsrv", Transport: st, Path: serverFile, FileBytes: serverFileBytes,
			Mode: path.Mode, Engine: path.Engine, Conns: 1,
		})
		fd, _, err := ct.Connect(p, serverPort)
		Must(err)
		_, err = p.Write(fd, []byte{1})
		Must(err)
		buf := make([]byte, BlockSize)
		for got := 0; got < serverFileBytes; {
			n, err := p.Read(fd, buf)
			Must(err)
			if n == 0 {
				break
			}
			got += n
		}
		Must(p.Close(fd))
		src, serr := dataBlocks(p, serverFile, serverFileBytes/BlockSize)
		if err = serr; err == nil {
			err = amp.check("server "+path.Label, src, nil)
		}
		for _, b := range src {
			if err == nil && amp.reads[int64(b)] == 0 {
				err = fmt.Errorf("server %s: block %d was never read: the cache was not cold", path.Label, b)
			}
		}
	})
	Must(k.Run())
	return err
}

// TestIOAmplification holds every copy path to the relation on the
// paper's 8 MB file, on a RAM disk and on an RZ58, whose readahead and
// elevator are where a second read or write of a block would come from,
// and every server path (engine and data path, server.Paths) to its read
// half. The file is larger than the page pool, so mcp's pageouts run
// during the copy: before mcp's destination blocks stopped being
// zero-filled at allocation, this failed with a destination block
// written twice.
func TestIOAmplification(t *testing.T) {
	for _, kind := range []DiskKind{RAM, RZ58} {
		for mode := workload.CopyReadWrite; mode <= workload.CopyBatched; mode++ {
			if err := ioAmpCopy(DefaultSetup(kind), mode); err != nil {
				t.Error(err)
			}
		}
	}
	for _, path := range server.Paths {
		if err := ioAmpServe(path); err != nil {
			t.Error(err)
		}
	}
}

// TestCatalogTrips plants a second write of one destination block and a
// second read of one source block, and a Table 1 cell whose test program
// lost twice or half the copy's busy time per megabyte: the relations
// must name each.
func TestCatalogTrips(t *testing.T) {
	for _, fault := range []struct {
		name  string
		plant func(a *ioAmp)
	}{
		{"perf-io-amp", func(a *ioAmp) { a.writes[20]++ }},
		{"perf-io-amp", func(a *ioAmp) { a.reads[10]++ }},
	} {
		a := &ioAmp{reads: map[int64]int{10: 1}, writes: map[int64]int{20: 1}}
		if err := a.check("planted", []uint32{10}, []uint32{20}); err != nil {
			t.Fatalf("before the plant: %v", err)
		}
		fault.plant(a)
		if err := a.check("planted", []uint32{10}, []uint32{20}); kernel.ViolationName(err) != fault.name {
			t.Errorf("check = %v, want a %s violation", err, fault.name)
		}
	}
	cell := availCell{disk: RZ58, mode: workload.CopySplice, lost: 285 * sim.Millisecond, lostMB: 5.7, busy: 0.377, busyMB: 8}
	if err := cell.check(); err != nil {
		t.Fatalf("before the plant: %v", err)
	}
	for _, fault := range []struct {
		name  string
		plant func(c *availCell)
	}{
		{"perf-avail-busy", func(c *availCell) { c.lost *= 2 }},
		{"perf-avail-busy", func(c *availCell) { c.busy *= 2 }},
	} {
		c := cell
		fault.plant(&c)
		if err := c.check(); kernel.ViolationName(err) != fault.name {
			t.Errorf("check = %v, want a %s violation", err, fault.name)
		}
	}
}
