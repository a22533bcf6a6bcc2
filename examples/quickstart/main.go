// Quickstart: boot a simulated two-disk workstation, create a file,
// copy it with a single splice() call, and verify the bytes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"kdp"
	"kdp/internal/trace"
)

func main() {
	m := kdp.New(kdp.Config{
		Disks: []kdp.DiskSpec{
			{Mount: "/d0", Kind: kdp.DiskRZ58},
			{Mount: "/d1", Kind: kdp.DiskRZ58},
		},
	})

	const size = 2 << 20 // 2MB
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 31)
	}

	m.Spawn("quickstart", func(p *kdp.Proc) {
		// Create the source file through the ordinary write path.
		fd, err := p.Open("/d0/data", kdp.OCreat|kdp.OWrOnly)
		if err != nil {
			log.Fatal(err)
		}
		for off := 0; off < size; off += kdp.BlockSize {
			if _, err := p.Write(fd, want[off:off+kdp.BlockSize]); err != nil {
				log.Fatal(err)
			}
		}
		if err := p.Close(fd); err != nil {
			log.Fatal(err)
		}

		// Cold caches, as a fair copy benchmark requires.
		if err := m.ColdCaches(p); err != nil {
			log.Fatal(err)
		}

		// The in-kernel copy: one system call, no user buffer. The
		// kernel's trace counts the block reads and writes it issues.
		mt := m.Kernel().StartTrace(nil).Metrics()
		src, _ := p.Open("/d0/data", kdp.ORdOnly)
		dst, _ := p.Open("/d1/copy", kdp.OCreat|kdp.OWrOnly)
		t0 := p.Now()
		n, h, err := kdp.SpliceWithOptions(p, src, dst, kdp.SpliceEOF, kdp.SpliceOptions{})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := p.Now().Sub(t0)
		st := h.Stats()
		fmt.Printf("spliced %d bytes in %v (%.0f KB/s virtual)\n",
			n, elapsed, float64(n)/1024/elapsed.Seconds())
		fmt.Printf("reads=%d writes=%d shared-buffers=%d copies=%d callout-dispatches=%d\n",
			mt.EventCount[trace.KindSpliceRead], mt.EventCount[trace.KindSpliceWrite],
			st.Shared, st.Copied, st.Callouts)
		_ = p.Close(src)
		_ = p.Close(dst)

		// Verify through the read path.
		got := make([]byte, size)
		vfd, _ := p.Open("/d1/copy", kdp.ORdOnly)
		for off := 0; off < size; {
			r, err := p.Read(vfd, got[off:])
			if err != nil {
				log.Fatal(err)
			}
			if r == 0 {
				break
			}
			off += r
		}
		if bytes.Equal(got, want) {
			fmt.Println("verification: copy is byte-identical to the source")
		} else {
			log.Fatal("verification failed: data mismatch")
		}
	})

	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine ran %v of virtual time\n", m.Now())
}
