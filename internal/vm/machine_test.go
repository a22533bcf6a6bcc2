package vm_test

import (
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
)

// TestMachineCheckReachesThePool is the page pool's row of
// machine.TestCheckInvariantsCoversEveryLayer. It lives here because the
// damage has to reach inside the pool: Pool.Damage is test code
// (export_test.go), which only this directory's tests can see, and an
// external test package may import internal/machine where package vm's
// own tests cannot.
func TestMachineCheckReachesThePool(t *testing.T) {
	m := machine.New(machine.Spec{
		Kernel: kernel.DefaultConfig(), CacheBufs: 32,
		Disks: []machine.DiskSpec{{Mount: "/d0", Params: disk.RAMDisk(64, machine.BlockSize), Inodes: 64}},
	})
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("fresh machine: %v", err)
	}
	m.Pool.Damage("hand")
	if err := m.CheckInvariants(); kernel.ViolationName(err) != "vm-clock-hand" {
		t.Errorf("damaged pool: CheckInvariants = %v, want vm-clock-hand", err)
	}
}
