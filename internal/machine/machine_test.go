package machine_test

import (
	"bytes"
	"strings"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
)

// spec is a small machine: n RAM disks mounted at /d0, /d1, ...
func spec(vmPages int, names ...string) machine.Spec {
	s := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 32, VMPages: vmPages}
	s.Kernel.MaxRunTime = 60 * sim.Second
	for i, name := range names {
		p := disk.RAMDisk(128, machine.BlockSize)
		p.Name = name
		s.Disks = append(s.Disks, machine.DiskSpec{
			Mount: "/d" + string(rune('0'+i)), Params: p, Inodes: 64,
		})
	}
	return s
}

// run drives body as the machine's only process.
func run(t *testing.T, m *machine.Machine, body func(p *kernel.Proc)) {
	t.Helper()
	m.K.Spawn("test", body)
	if err := m.K.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDuplicateDeviceNamePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "duplicate device name ram") {
			t.Fatalf("New with two disks called ram: recovered %v", r)
		}
	}()
	machine.New(spec(0, "ram", "ram"))
}

func TestBootMountsOnce(t *testing.T) {
	m := machine.New(spec(8, "a", "b"))
	run(t, m, func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		f0, f1 := m.FSs[0], m.FSs[1]
		reads := m.Disks[0].Stats().Reads + m.Disks[1].Stats().Reads
		if err := m.Boot(p); err != nil {
			t.Fatalf("second boot: %v", err)
		}
		if m.FSs[0] != f0 || m.FSs[1] != f1 {
			t.Error("second Boot replaced a mounted filesystem")
		}
		if got := m.Disks[0].Stats().Reads + m.Disks[1].Stats().Reads; got != reads {
			t.Errorf("second Boot read the disks: %d reads, was %d", got, reads)
		}
		if m.FSs[0].Pager() == nil || m.FSs[1].Pager() == nil {
			t.Error("Boot left a filesystem without its pager")
		}
		for _, path := range []string{"/d0/x", "/d1/x"} {
			fd, err := p.Open(path, kernel.OCreat|kernel.OWrOnly)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			p.Close(fd)
		}
	})
	if devs := m.Devices(); len(devs) != 2 || devs[0] != buf.Device(m.Disks[0]) || devs[1] != buf.Device(m.Disks[1]) {
		t.Errorf("Devices() = %v", devs)
	}
}

func TestDisklessAndVMlessMachinesRun(t *testing.T) {
	bare := machine.New(spec(8))
	run(t, bare, func(p *kernel.Proc) {
		if err := bare.Boot(p); err != nil {
			t.Errorf("boot with no disks: %v", err)
		}
		p.Compute(sim.Millisecond)
	})
	if err := bare.CheckInvariants(); err != nil {
		t.Errorf("diskless machine: %v", err)
	}

	novm := machine.New(spec(0, "ram"))
	run(t, novm, func(p *kernel.Proc) {
		if err := novm.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		fd, err := p.Open("/d0/f", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := p.Write(fd, make([]byte, 100)); err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := p.Mmap(fd, 0, 100, kernel.ProtRead, kernel.MapShared); err != kernel.ErrOpNotSupp {
			t.Errorf("mmap without VM = %v, want ErrOpNotSupp", err)
		}
		p.Close(fd)
	})
	if novm.Pool != nil || novm.FSs[0].Pager() != nil {
		t.Error("VM-less machine has a pool or a pager")
	}
	if err := novm.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := novm.CheckDrained(); err != nil {
		t.Error(err)
	}
}

// TestRemountKeepsPager is the trap the package removes: a filesystem
// remounted after a power cut must get the pager again, or fsync
// silently stops covering stores made through a mapping.
func TestRemountKeepsPager(t *testing.T) {
	s := spec(8)
	rz := disk.RZ58(256, machine.BlockSize)
	s.Disks = []machine.DiskSpec{{Mount: "/d0", Params: rz, Inodes: 64, Interleave: 2, Readahead: 4}}
	m := machine.New(s)
	const path = "/d0/f"
	size := int64(2 * machine.BlockSize)

	// store writes data at the start of the file through a shared
	// mapping and makes it durable with sync before unmapping.
	store := func(p *kernel.Proc, data string, sync func(fd int, addr int64) error) {
		t.Helper()
		fd, err := p.Open(path, kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		addr, err := p.Mmap(fd, 0, size, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, []byte(data)); err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := sync(fd, addr); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		p.Close(fd)
	}
	cutAndRecover := func(p *kernel.Proc) {
		t.Helper()
		cuts, err := m.PowerCut(p)
		if err != nil || len(cuts) != 1 {
			t.Fatalf("power cut: %v, %d report(s)", err, len(cuts))
		}
		dead := m.FSs[0]
		rep, err := m.Recover(p, 0)
		if err != nil || rep == nil {
			t.Fatalf("recover: %v (report %v)", err, rep)
		}
		if m.FSs[0] == dead || m.FSs[0].Pager() == nil || m.FSs[0].Readahead() != 4 {
			t.Fatal("Recover did not remount through the one mount path (fresh fs, pager, readahead)")
		}
	}
	mapped := func(p *kernel.Proc, n int) string {
		t.Helper()
		fd, err := p.Open(path, kernel.ORdOnly)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer p.Close(fd)
		addr, err := p.Mmap(fd, 0, size, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("remap: %v", err)
		}
		got := make([]byte, n)
		if err := p.MemRead(addr, got); err != nil {
			t.Fatalf("load: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		return string(got)
	}

	run(t, m, func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		fd, err := p.Open(path, kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := p.Write(fd, bytes.Repeat([]byte{'a'}, int(size))); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := p.Fsync(fd); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		p.Close(fd)

		store(p, "first", func(_ int, addr int64) error { return p.Msync(addr) })
		cutAndRecover(p)
		if got := mapped(p, 5); got != "first" {
			t.Fatalf("after msync + power cut the mapping reads %q, want %q", got, "first")
		}

		// fsync covers the store only through the remounted filesystem's
		// pager: without it the page is written back at munmap as a
		// delayed write, which the second power cut discards.
		store(p, "second", func(fd int, _ int64) error { return p.Fsync(fd) })
		cutAndRecover(p)
		if got := mapped(p, 6); got != "second" {
			t.Fatalf("after fsync on the remounted volume + power cut the mapping reads %q, want %q", got, "second")
		}
	})
	if err := m.CheckDrained(); err != nil {
		t.Error(err)
	}
}

func TestPowerCutRefusesBusyMachine(t *testing.T) {
	m := machine.New(spec(8, "ram"))
	run(t, m, func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		fd, err := p.Open("/d0/held", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := m.PowerCut(p); err == nil || !strings.Contains(err.Error(), "/d0 not quiescent: 1 in-core inode(s) held") {
			t.Errorf("power cut with an open file: %v", err)
		}
		if _, err := p.Write(fd, make([]byte, machine.BlockSize)); err != nil {
			t.Fatalf("write: %v", err)
		}
		addr, err := p.Mmap(fd, 0, machine.BlockSize, kernel.ProtRead, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		p.Close(fd)
		if _, err := m.PowerCut(p); err == nil || !strings.Contains(err.Error(), "not quiescent") {
			t.Errorf("power cut with a live mapping: %v", err)
		}
		if err := p.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		if _, err := m.PowerCut(p); err != nil {
			t.Errorf("power cut of a quiescent machine: %v", err)
		}
	})
}

// TestCheckInvariantsCoversEveryLayer damages one layer at a time and
// requires the machine's check to report that layer's own invariant.
// The page pool's row is internal/vm's TestMachineCheckReachesThePool:
// nothing exported damages a pool.
func TestCheckInvariantsCoversEveryLayer(t *testing.T) {
	for _, tc := range []struct {
		layer, want string
		damage      func(m *machine.Machine)
	}{
		{"buf", "buf-free-busy", func(m *machine.Machine) { m.Cache.Damage("busy-on-freelist") }},
		{"disk", "disk-queue-busy", func(m *machine.Machine) {
			// The first request goes active; the second waits in the
			// queue, and a queued buffer must be busy.
			for blk := int64(0); blk < 2; blk++ {
				m.Disks[0].Strategy(&buf.Buf{Blkno: blk, Bcount: machine.BlockSize, Data: make([]byte, machine.BlockSize)})
			}
		}},
	} {
		s := spec(8)
		s.Disks = []machine.DiskSpec{{Mount: "/d0", Params: disk.RZ58(64, machine.BlockSize), Inodes: 64}}
		m := machine.New(s)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: fresh machine: %v", tc.layer, err)
		}
		tc.damage(m)
		if err := m.CheckInvariants(); kernel.ViolationName(err) != tc.want {
			t.Errorf("%s damage: CheckInvariants = %v, want %s", tc.layer, err, tc.want)
		}
	}
}
