package stream

import (
	"bytes"
	"testing"

	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/splice"
)

// TestSpliceFileToConn is the paper's server data path: the file is
// spliced onto a stream connection with SPLICE_EOF and the client reads
// it back byte-exact — the server process never touches the data.
func TestSpliceFileToConn(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dropEvery int
	}{
		{"clean", 0},
		{"lossy", 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := kernel.DefaultConfig()
			cfg.MaxRunTime = 3600 * sim.Second
			k := kernel.New(cfg)
			cache := buf.NewCache(k, 400, 8192)
			d := disk.New(k, disk.RAMDisk(2048, 8192))
			d.SetCache(cache)
			if _, err := fs.Mkfs(d, 64); err != nil {
				t.Fatal(err)
			}
			n := lossyNet(k, tc.dropEvery)
			srv, _ := NewTransport(k, n, 80)
			cli, _ := NewTransport(k, n, 5001)

			data := pattern(150_000, 21)
			var got []byte
			k.Spawn("server", func(p *kernel.Proc) {
				f, err := fs.Mount(p.Ctx(), cache, d)
				if err != nil {
					t.Errorf("mount: %v", err)
					return
				}
				k.Mount("/d0", f)
				fd, err := p.Open("/d0/file", kernel.OCreat|kernel.ORdWr)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for off := 0; off < len(data); off += 8192 {
					end := off + 8192
					if end > len(data) {
						end = len(data)
					}
					if _, err := p.Write(fd, data[off:end]); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
				_ = p.Close(fd)

				_ = srv.Listen(p)
				src, err := p.Open("/d0/file", kernel.ORdOnly)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				cfd, _, err := srv.Accept(p)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				moved, err := splice.Splice(p, src, cfd, splice.EOF)
				if err != nil {
					t.Errorf("splice: %v", err)
					return
				}
				if moved != int64(len(data)) {
					t.Errorf("splice moved %d bytes, want %d", moved, len(data))
				}
				_ = p.Close(src)
				_ = p.Close(cfd)
			})
			k.Spawn("client", func(p *kernel.Proc) {
				fd, _, err := cli.Connect(p, 80)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				got = readToEOF(t, p, fd)
				_ = p.Close(fd)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("client received %d bytes, want %d", len(got), len(data))
			}
		})
	}
}
