// Cpubound reproduces the paper's CPU-availability experiment (§6.2) in
// miniature, using only the public API: a CPU-bound test program runs
// a fixed set of operations three times — alone (IDLE), against a
// read/write copier (CP), and against a splice copier (SCP) — and the
// slowdown factors show how much CPU each copy path leaves available.
//
// Run with: go run ./examples/cpubound [-disk RAM|RZ58|RZ56]
package main

import (
	"flag"
	"fmt"
	"log"

	"kdp"
)

const (
	fileBytes = 4 << 20
	testOps   = 300
	opCost    = 10 * kdp.Millisecond
)

func main() {
	diskName := flag.String("disk", kdp.DiskRAM.String(), "disk type: RAM, RZ58 or RZ56")
	flag.Parse()
	kind, err := kdp.ParseDisk(*diskName)
	if err != nil {
		log.Fatal(err)
	}

	idle := measure(kind, "idle")
	cp := measure(kind, "cp")
	scp := measure(kind, "scp")

	fmt.Printf("\nCPU availability on %s (test program: %d ops of %v)\n", *diskName, testOps, opCost)
	fmt.Printf("  IDLE: %v\n", idle)
	fmt.Printf("  CP:   %v  (slowdown %.2f, test program at %3.0f%% of idle speed)\n",
		cp, factor(cp, idle), 100/factor(cp, idle))
	fmt.Printf("  SCP:  %v  (slowdown %.2f, test program at %3.0f%% of idle speed)\n",
		scp, factor(scp, idle), 100/factor(scp, idle))
	fmt.Printf("  splice improvement: %.0f%%\n", (factor(cp, idle)/factor(scp, idle)-1)*100)
}

func factor(a, b kdp.Duration) float64 { return float64(a) / float64(b) }

// measure runs the test program in one environment and returns its
// elapsed virtual time.
func measure(kind kdp.DiskKind, env string) kdp.Duration {
	m := kdp.New(kdp.Config{
		Disks: []kdp.DiskSpec{
			{Mount: "/src", Kind: kind, MB: 16},
			{Mount: "/dst", Kind: kind, MB: 16},
		},
	})
	stop := false
	ready := env == "idle"
	var elapsed kdp.Duration

	if env != "idle" {
		m.Spawn("copier", func(p *kdp.Proc) {
			makeFile(p, "/src/big", fileBytes)
			ready = true
			m.Kernel().Wakeup(&ready)
			for !stop {
				if err := m.ColdCaches(p); err != nil {
					log.Fatal(err)
				}
				if stop {
					break
				}
				if env == "scp" {
					src, _ := p.Open("/src/big", kdp.ORdOnly)
					dst, _ := p.Open("/dst/copy", kdp.OCreat|kdp.OWrOnly|kdp.OTrunc)
					if _, err := kdp.Splice(p, src, dst, kdp.SpliceEOF); err != nil {
						log.Fatal(err)
					}
					_ = p.Close(src)
					_ = p.Close(dst)
				} else {
					src, _ := p.Open("/src/big", kdp.ORdOnly)
					dst, _ := p.Open("/dst/copy", kdp.OCreat|kdp.OWrOnly|kdp.OTrunc)
					buf := make([]byte, kdp.BlockSize)
					for {
						n, err := p.Read(src, buf)
						if err != nil {
							log.Fatal(err)
						}
						if n == 0 {
							break
						}
						p.Compute(25 * kdp.Microsecond) // cp's loop overhead
						if _, err := p.Write(dst, buf[:n]); err != nil {
							log.Fatal(err)
						}
					}
					if err := p.Fsync(dst); err != nil {
						log.Fatal(err)
					}
					_ = p.Close(src)
					_ = p.Close(dst)
				}
				if err := p.Unlink("/dst/copy"); err != nil {
					log.Fatal(err)
				}
			}
		})
	}

	m.Spawn("test", func(p *kdp.Proc) {
		for !ready {
			_ = p.Sleep(&ready, kdp.PWait)
		}
		t0 := p.Now()
		for i := 0; i < testOps; i++ {
			p.Compute(opCost)
		}
		elapsed = p.Now().Sub(t0)
		stop = true
	})

	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s environment: test program finished in %v\n", env, elapsed)
	return elapsed
}

func makeFile(p *kdp.Proc, path string, n int) {
	fd, err := p.Open(path, kdp.OCreat|kdp.OWrOnly)
	if err != nil {
		log.Fatal(err)
	}
	chunk := make([]byte, kdp.BlockSize)
	for off := 0; off < n; off += len(chunk) {
		if _, err := p.Write(fd, chunk); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.Close(fd); err != nil {
		log.Fatal(err)
	}
}
