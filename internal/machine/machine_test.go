package machine_test

import (
	"errors"
	"strings"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// spec is a small machine: a 32-buffer cache (so a 4-frame page pool)
// and n RAM disks mounted at /d0, /d1, ...
func spec(names ...string) machine.Spec {
	s := machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: 32}
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
	machine.New(spec("ram", "ram"))
}

// TestPoolIsAnEighthOfTheCache: New sizes the page pool from the cache,
// an eighth of its buffers and at least 2, so resident pages can never
// hold every buffer getblk recycles. A cache below 4 buffers, where the
// floor of 2 would leave getblk one buffer or none, is refused.
func TestPoolIsAnEighthOfTheCache(t *testing.T) {
	for _, tc := range []struct{ bufs, frames int }{
		{1, 0}, {2, 0}, {3, 0}, {4, 2}, {16, 2}, {64, 8}, {400, 50}, {409, 51},
	} {
		func() {
			defer func() {
				if r := recover(); (r != nil) != (tc.frames == 0) {
					t.Errorf("CacheBufs %d: New panicked %v, want a panic: %v", tc.bufs, r, tc.frames == 0)
				}
			}()
			m := machine.New(machine.Spec{Kernel: kernel.DefaultConfig(), CacheBufs: tc.bufs})
			if got := m.Pool.Frames(); got != tc.frames {
				t.Errorf("CacheBufs %d: %d frames, want %d", tc.bufs, got, tc.frames)
			}
			m.Release()
		}()
	}
}

func TestBootMountsOnce(t *testing.T) {
	m := machine.New(spec("a", "b"))
	run(t, m, func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		f0, f1 := m.FSs[0], m.FSs[1]
		mt := m.K.StartTrace(nil).Metrics()
		if err := m.Boot(p); err != nil {
			t.Fatalf("second boot: %v", err)
		}
		if m.FSs[0] != f0 || m.FSs[1] != f1 {
			t.Error("second Boot replaced a mounted filesystem")
		}
		if n := mt.EventCount[trace.KindDiskRead]; n != 0 {
			t.Errorf("second Boot read the disks: %d reads", n)
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

func TestDisklessMachineRuns(t *testing.T) {
	bare := machine.New(spec())
	run(t, bare, func(p *kernel.Proc) {
		if err := bare.Boot(p); err != nil {
			t.Errorf("boot with no disks: %v", err)
		}
		p.Compute(sim.Millisecond)
	})
	if err := bare.CheckInvariants(); err != nil {
		t.Errorf("diskless machine: %v", err)
	}
}

// TestRecoverRemountsThroughTheOneMountPath: after a power cut, Recover
// repairs the volume and mounts a fresh filesystem with the disk's own
// layout and readahead, and a store msync'd through a mapping before
// the cut is there to read.
func TestRecoverRemountsThroughTheOneMountPath(t *testing.T) {
	s := spec()
	rz := disk.RZ58(256, machine.BlockSize)
	s.Disks = []machine.DiskSpec{{Mount: "/d0", Params: rz, Inodes: 64, Interleave: 2, Readahead: 4}}
	m := machine.New(s)
	run(t, m, func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			t.Fatalf("boot: %v", err)
		}
		fd, err := p.Open("/d0/f", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		addr, err := p.Mmap(fd, 0, machine.BlockSize, kernel.ProtRead|kernel.ProtWrite, kernel.MapShared)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := p.MemWrite(addr, []byte("first")); err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := errors.Join(p.Msync(addr), p.Munmap(addr), p.Close(fd)); err != nil {
			t.Fatalf("msync, munmap, close: %v", err)
		}
		if cuts, err := m.PowerCut(p); err != nil || len(cuts) != 1 {
			t.Fatalf("power cut: %v, %d report(s)", err, len(cuts))
		}
		dead := m.FSs[0]
		if rep, err := m.Recover(p, 0); err != nil || rep == nil {
			t.Fatalf("recover: %v (report %v)", err, rep)
		}
		if m.FSs[0] == dead || m.FSs[0].Readahead() != 4 {
			t.Fatal("Recover did not remount through the one mount path (fresh fs, readahead)")
		}
		got := make([]byte, 5)
		if fd, err = p.Open("/d0/f", kernel.ORdOnly); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, err := p.Read(fd, got); err != nil || string(got) != "first" {
			t.Errorf("after msync and a power cut the file reads %q (%v), want %q", got, err, "first")
		}
		p.Close(fd)
	})
	if err := m.CheckDrained(); err != nil {
		t.Error(err)
	}
}

func TestPowerCutRefusesBusyMachine(t *testing.T) {
	m := machine.New(spec("ram"))
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
		s := spec()
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
