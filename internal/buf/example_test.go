package buf_test

import (
	"fmt"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/kernel"
)

// Example walks the classic buffer-cache life cycle on a RAM disk:
// write a block with bdwrite (delayed — nothing reaches the device),
// read it back from the cache, flush the device, and probe the
// readahead path. RAM-disk requests complete inline, so readahead
// blocks are warm by the time a demand read asks for them.
func Example() {
	k := kernel.New(kernel.DefaultConfig())
	c := buf.NewCache(k, 16, 8192)
	d := disk.New(k, disk.RAMDisk(256, 8192))
	d.SetCache(c)
	mt := k.StartTrace(nil).Metrics() // counts the lookups and readahead

	k.Spawn("demo", func(p *kernel.Proc) {
		ctx := p.Ctx()

		// Delayed write: the block is dirty in the cache only.
		b := c.Getblk(ctx, d, 10)
		copy(c.Store(b, false), []byte("hello"))
		c.Bdwrite(ctx, b)
		fmt.Println("delayed write:", c.Peek(d, 10).Flags&buf.BDelwri != 0)

		// A read of the same block is a pure cache hit.
		b, _ = c.Bread(ctx, d, 10)
		fmt.Printf("cached data: %s\n", b.Data[:5])
		c.Brelse(ctx, b)

		// Flush pushes the dirty block to the platter.
		n, _ := c.FlushDev(ctx, d)
		fmt.Println("flushed:", n)

		// Speculative read of the next block; the demand read that
		// follows consumes it without touching the device again.
		c.StartReadahead(ctx, d, 11)
		b, _ = c.Bread(ctx, d, 11)
		c.Brelse(ctx, b)
		fmt.Printf("readahead issued=%d hits=%d\n", mt.BufRaIssued, mt.BufRaHits)
	})
	if err := k.Run(); err != nil {
		fmt.Println("run:", err)
	}
	// Output:
	// delayed write: true
	// cached data: hello
	// flushed: 1
	// readahead issued=1 hits=1
}
