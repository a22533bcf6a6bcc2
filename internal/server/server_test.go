package server

import (
	"bytes"
	"fmt"
	"testing"

	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/machine"
	"kdp/internal/sim"
	"kdp/internal/socket"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

const (
	testFileBytes = 64 << 10
	testPort      = 80
)

// runServer serves nClients closed-loop clients (reqs requests each)
// with the given engine and mode and returns the per-client received
// data and the trace collector.
func runServer(t *testing.T, engine Engine, mode Mode, nClients, reqs int) ([][]byte, *trace.Collector, *Server) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.MaxRunTime = 3600 * sim.Second
	m := machine.New(machine.Spec{Kernel: cfg, CacheBufs: 400, Disks: []machine.DiskSpec{
		{Mount: "/srv", Params: disk.RAMDisk(1024, 8192), Inodes: 64},
	}})
	k := m.K
	col := &trace.Collector{}
	k.StartTrace(col)
	net := socket.NewNet(k, socket.Loopback())
	st, err := stream.NewTransport(k, net, testPort)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*stream.Transport, nClients)
	for i := range cts {
		if cts[i], err = stream.NewTransport(k, net, 5001+i); err != nil {
			t.Fatal(err)
		}
	}

	var srv *Server
	ready := false
	k.Spawn("boot", func(p *kernel.Proc) {
		if err := m.Boot(p); err != nil {
			panic(err)
		}
		fd, err := p.Open("/srv/file", kernel.OCreat|kernel.ORdWr)
		if err != nil {
			panic(err)
		}
		block := make([]byte, 8192)
		for i := range block {
			block[i] = byte(i) ^ 0xC3
		}
		for off := 0; off < testFileBytes; off += len(block) {
			if _, err := p.Write(fd, block); err != nil {
				panic(err)
			}
		}
		_ = p.Close(fd)
		srv = Start(k, Config{
			Name:      "fsrv",
			Transport: st,
			Path:      "/srv/file",
			FileBytes: testFileBytes,
			Mode:      mode,
			Engine:    engine,
			Conns:     nClients,
		})
		ready = true
		k.Wakeup(&ready)
	})

	got := make([][]byte, nClients)
	for i := 0; i < nClients; i++ {
		i := i
		k.Spawn(fmt.Sprintf("client-%d", i), func(p *kernel.Proc) {
			for !ready {
				_ = p.Sleep(&ready, kernel.PWAIT)
			}
			fd, _, err := cts[i].Connect(p, testPort)
			if err != nil {
				t.Errorf("client %d: connect: %v", i, err)
				return
			}
			buf := make([]byte, 8192)
			for r := 0; r < reqs; r++ {
				if _, err := p.Write(fd, []byte{1}); err != nil {
					t.Errorf("client %d: request: %v", i, err)
					return
				}
				var resp int
				for resp < testFileBytes {
					n, err := p.Read(fd, buf)
					if err != nil || n == 0 {
						t.Errorf("client %d: response truncated at %d: %v", i, resp, err)
						return
					}
					got[i] = append(got[i], buf[:n]...)
					resp += n
				}
			}
			_ = p.Close(fd)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return got, col, srv
}

func TestServerServesConcurrentClients(t *testing.T) {
	for _, path := range Paths {
		t.Run(path.Label, func(t *testing.T) {
			const nClients, reqs = 3, 2
			got, col, srv := runServer(t, path.Engine, path.Mode, nClients, reqs)

			want := make([]byte, 0, testFileBytes*reqs)
			block := make([]byte, 8192)
			for i := range block {
				block[i] = byte(i) ^ 0xC3
			}
			for len(want) < testFileBytes*reqs {
				want = append(want, block...)
			}
			for i := 0; i < nClients; i++ {
				if !bytes.Equal(got[i], want) {
					t.Fatalf("client %d received %d bytes, want %d (%s)", i, len(got[i]), len(want), path.Label)
				}
			}
			if srv.Accepted() != nClients {
				t.Fatalf("accepted %d connections, want %d", srv.Accepted(), nClients)
			}
			if srv.Requests() != nClients*reqs {
				t.Fatalf("served %d requests, want %d", srv.Requests(), nClients*reqs)
			}
			if srv.BytesServed() != int64(nClients*reqs*testFileBytes) {
				t.Fatalf("served %d bytes, want %d", srv.BytesServed(), nClients*reqs*testFileBytes)
			}
			accepts, readies := 0, 0
			for _, ev := range col.Events {
				switch ev.Kind {
				case trace.KindServerAccept:
					accepts++
					if ev.Name != "fsrv" {
						t.Fatalf("server.accept event named %q, want fsrv", ev.Name)
					}
				case trace.KindServerReady:
					readies++
				}
			}
			if accepts != nClients {
				t.Fatalf("%d server.accept events, want %d", accepts, nClients)
			}
			if path.Engine == EngineEvent && readies == 0 {
				t.Fatalf("event engine dispatched no server.ready events")
			}
			if path.Engine == EngineProcs && readies != 0 {
				t.Fatalf("procs engine emitted %d server.ready events, want 0", readies)
			}
		})
	}
}

func TestModeName(t *testing.T) {
	for _, tc := range []struct {
		e    Engine
		m    Mode
		want string
	}{
		{EngineProcs, ModeCopy, "cp"},
		{EngineProcs, ModeSplice, "scp"},
		{EngineEvent, ModeCopy, "event"},
		{EngineEvent, ModeSplice, "escp"},
	} {
		if got := ModeName(tc.e, tc.m); got != tc.want {
			t.Errorf("ModeName(%v, %v) = %q, want %q", tc.e, tc.m, got, tc.want)
		}
	}
}

// TestStartRefusesUnimplementedPair: the server has no batched path,
// and Start must say so rather than serve plain nonblocking copies
// under the wrong label (ModeName has no label for the pair either).
func TestStartRefusesUnimplementedPair(t *testing.T) {
	if name := ModeName(EngineEvent, workload.CopyBatched); name != "" {
		t.Errorf("ModeName(EngineEvent, CopyBatched) = %q, want none", name)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Start(EngineEvent, CopyBatched) did not panic")
		}
	}()
	k := kernel.New(kernel.DefaultConfig())
	Start(k, Config{Name: "fsrv", Engine: EngineEvent, Mode: workload.CopyBatched})
}

// TestComplPortFileOps pins the completion port's file contract: it
// carries no byte stream (reads and writes are refused), it is readable
// exactly while completions wait, and draining empties it.
func TestComplPortFileOps(t *testing.T) {
	cp := &complPort{}
	if _, err := cp.Read(nil, make([]byte, 1), 0); err != kernel.ErrOpNotSupp {
		t.Errorf("Read err = %v, want ErrOpNotSupp", err)
	}
	if _, err := cp.Write(nil, []byte{1}, 0); err != kernel.ErrOpNotSupp {
		t.Errorf("Write err = %v, want ErrOpNotSupp", err)
	}
	if err := cp.Close(nil); err != nil {
		t.Errorf("Close err = %v", err)
	}
	if cp.PollQueue() != &cp.pollQ {
		t.Errorf("PollQueue did not return the port's queue")
	}
	if r := cp.PollReady(kernel.PollIn); r != 0 {
		t.Errorf("empty port PollReady = %#x, want 0", r)
	}
	ec := &econn{cfd: 1}
	cp.post(ec)
	if r := cp.PollReady(kernel.PollIn); r != kernel.PollIn {
		t.Errorf("posted port PollReady = %#x, want PollIn", r)
	}
	if r := cp.PollReady(kernel.PollOut); r != 0 {
		t.Errorf("PollReady(PollOut) = %#x, want 0", r)
	}
	if q := cp.drain(); len(q) != 1 || q[0] != ec {
		t.Errorf("drain = %v, want the posted connection", q)
	}
	if r := cp.PollReady(kernel.PollIn); r != 0 {
		t.Errorf("drained port PollReady = %#x, want 0", r)
	}
}
