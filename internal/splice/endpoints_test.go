package splice

import (
	"bytes"
	"testing"

	"kdp/internal/dev"
	"kdp/internal/disk"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/socket"
)

// These tests exercise the non-file splice endpoints the paper lists in
// §5.1: character devices (the §4 movie player), socket-to-socket UDP
// splices, and framebuffer-to-socket splices.

func TestSpliceFileToDAC(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	dac := dev.NewDAC(m.k, dev.DACParams{
		Path: "/dev/speaker", Rate: 1e6, BufBytes: 64 << 10, Capture: true,
	})
	const size = 5*bsize + 321
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/movie.audio", size, 40)
		src, _ := p.Open("/d0/movie.audio", kernel.ORdOnly)
		snd, err := p.Open("/dev/speaker", kernel.OWrOnly)
		if err != nil {
			t.Fatalf("open dac: %v", err)
		}
		n, err := Splice(p, src, snd, EOF)
		if err != nil || n != size {
			t.Fatalf("splice: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dac.Captured(), want) {
			t.Fatal("DAC did not play the file's bytes in order")
		}
	})
}

func TestSpliceFileToDACAsyncEOF(t *testing.T) {
	// The paper's audio half: set FASYNC, splice(audiofile, audio_dev,
	// SPLICE_EOF), return immediately, SIGIO at completion.
	m := newMachine(t, disk.RAMDisk)
	dac := dev.NewDAC(m.k, dev.DACParams{
		Path: "/dev/speaker", Rate: 64000, BufBytes: 64 << 10,
	})
	const size = 4 * bsize // 32KB at 64KB/s: ~0.5s of audio
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/movie.audio", size, 41)
		src, _ := p.Open("/d0/movie.audio", kernel.ORdOnly)
		snd, _ := p.Open("/dev/speaker", kernel.OWrOnly)
		_, _ = p.Fcntl(src, kernel.FSetFL, kernel.FAsync)
		got := false
		p.SetSignalHandler(kernel.SIGIO, func(*kernel.Proc, kernel.Signal) { got = true })
		t0 := p.Now()
		n, err := Splice(p, src, snd, EOF)
		if err != nil || n != size {
			t.Fatalf("splice: n=%d err=%v", n, err)
		}
		if ret := p.Now().Sub(t0); ret > 100*sim.Millisecond {
			t.Fatalf("async splice blocked %v", ret)
		}
		for !got {
			p.Pause()
		}
		playTime := p.Now().Sub(t0)
		if playTime < 400*sim.Millisecond {
			t.Fatalf("SIGIO at %v; playback should take ~0.5s", playTime)
		}
		if dac.Played() != size {
			t.Fatalf("played %d", dac.Played())
		}
	})
}

func TestSpliceFrameQuantumPacing(t *testing.T) {
	// The paper's video half: repeated synchronous splices of one
	// frame, paced by an interval timer. The size parameter is the
	// flow-control knob.
	m := newMachine(t, disk.RAMDisk)
	vdac := dev.NewDAC(m.k, dev.DACParams{
		Path: "/dev/video_dac", Rate: 4e6, BufBytes: 256 << 10, Capture: true,
	})
	const frame = 16000 // not block aligned, on purpose
	const frames = 8
	m.run(t, func(p *kernel.Proc) {
		want := makeFile(t, p, "/d0/movie.video", frame*frames, 42)
		src, _ := p.Open("/d0/movie.video", kernel.ORdOnly)
		vid, _ := p.Open("/dev/video_dac", kernel.OWrOnly)
		p.SetSignalHandler(kernel.SIGALRM, func(*kernel.Proc, kernel.Signal) {})
		p.SetITimer(33*sim.Millisecond, 33*sim.Millisecond)
		t0 := p.Now()
		for {
			n, err := Splice(p, src, vid, frame)
			if err != nil {
				t.Fatalf("frame splice: %v", err)
			}
			if n <= 0 {
				break
			}
			p.Pause() // wait for the timer
		}
		p.SetITimer(0, 0)
		elapsed := p.Now().Sub(t0)
		// 8 frames at ~33ms intervals: at least ~230ms.
		if elapsed < 220*sim.Millisecond {
			t.Fatalf("playback took %v; pacing not applied", elapsed)
		}
		if !bytes.Equal(vdac.Captured(), want) {
			t.Fatal("video frames corrupted or out of order")
		}
	})
}

func TestSpliceSocketToSocket(t *testing.T) {
	// §5.1: socket-to-socket splices for the UDP transport protocol. A
	// relay process splices its inbound socket to its outbound socket;
	// datagrams flow through the kernel without the relay running.
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(5000)   // relay's inbound
	out, _ := net.NewSocket(5001)  // relay's outbound
	sink, _ := net.NewSocket(5002) // final consumer
	out.Connect(5002)

	producer, _ := net.NewSocket(4000)
	producer.Connect(5000)

	const ndgrams = 20
	const dsize = 1000
	var received [][]byte

	m.k.Spawn("consumer", func(p *kernel.Proc) {
		fd := p.InstallFile(sink, kernel.ORdOnly)
		buf := make([]byte, 4096)
		for len(received) < ndgrams {
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("consume: %v", err)
				return
			}
			if n == 0 {
				break
			}
			received = append(received, append([]byte(nil), buf[:n]...))
		}
	})
	m.k.Spawn("relay", func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		outFD := p.InstallFile(out, kernel.OWrOnly)
		n, err := Splice(p, inFD, outFD, ndgrams*dsize)
		if err != nil {
			t.Errorf("relay splice: %v", err)
		}
		if n != ndgrams*dsize {
			t.Errorf("relayed %d bytes, want %d", n, ndgrams*dsize)
		}
	})
	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		msg := make([]byte, dsize)
		for i := 0; i < ndgrams; i++ {
			msg[0] = byte(i)
			if _, err := p.Write(fd, msg); err != nil {
				t.Errorf("produce: %v", err)
			}
		}
	})
	m.drive(t)
	if len(received) != ndgrams {
		t.Fatalf("consumer got %d datagrams, want %d", len(received), ndgrams)
	}
	for i, d := range received {
		if d[0] != byte(i) {
			t.Fatalf("datagram %d out of order (marker %d)", i, d[0])
		}
	}
}

func TestSpliceSocketRelayUntilEOF(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(5000)
	out, _ := net.NewSocket(5001)
	sink, _ := net.NewSocket(5002)
	out.Connect(5002)
	producer, _ := net.NewSocket(4000)
	producer.Connect(5000)

	var relayed int64
	m.k.Spawn("relay", func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		outFD := p.InstallFile(out, kernel.OWrOnly)
		n, err := Splice(p, inFD, outFD, EOF)
		if err != nil {
			t.Errorf("relay: %v", err)
		}
		relayed = n
	})
	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		for i := 0; i < 5; i++ {
			_, _ = p.Write(fd, make([]byte, 700))
		}
		_ = p.Close(fd) // EOF marker terminates the relay
	})
	m.k.Spawn("drain", func(p *kernel.Proc) {
		fd := p.InstallFile(sink, kernel.ORdOnly)
		buf := make([]byte, 4096)
		for i := 0; i < 5; i++ {
			if n, _ := p.Read(fd, buf); n == 0 {
				break
			}
		}
	})
	m.drive(t)
	if relayed != 5*700 {
		t.Fatalf("relayed %d bytes, want %d", relayed, 5*700)
	}
}

func TestSpliceFramebufferToSocket(t *testing.T) {
	// §5.1: framebuffer-to-socket splices for sending graphical images
	// and video.
	m := newMachine(t, disk.RAMDisk)
	fb := dev.NewFramebuffer(m.k, dev.FBParams{
		Path: "/dev/fb0", FrameBytes: 4096, FPS: 50, Frames: 12,
	})
	net := socket.NewNet(m.k, socket.Ethernet10())
	out, _ := net.NewSocket(6000)
	viewer, _ := net.NewSocket(6001)
	out.Connect(6001)

	var frames int
	m.k.Spawn("viewer", func(p *kernel.Proc) {
		fd := p.InstallFile(viewer, kernel.ORdOnly)
		buf := make([]byte, 8192)
		for {
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("viewer: %v", err)
				return
			}
			if n == 0 {
				break
			}
			frames++
		}
	})
	m.k.Spawn("streamer", func(p *kernel.Proc) {
		fbFD, err := p.Open("/dev/fb0", kernel.ORdOnly)
		if err != nil {
			t.Errorf("open fb: %v", err)
			return
		}
		outFD := p.InstallFile(out, kernel.OWrOnly)
		n, err := Splice(p, fbFD, outFD, EOF)
		if err != nil {
			t.Errorf("fb splice: %v", err)
		}
		if n != 12*4096 {
			t.Errorf("streamed %d bytes, want %d", n, 12*4096)
		}
		_ = p.Close(outFD) // let the viewer finish
	})
	m.drive(t)
	if frames != 12 {
		t.Fatalf("viewer saw %d frames, want 12", frames)
	}
	if fb.Dropped() != 0 {
		t.Fatalf("%d frames dropped during splice", fb.Dropped())
	}
}

func TestSpliceFileToNull(t *testing.T) {
	m := newMachine(t, disk.RZ58)
	null := dev.NewNull(m.k)
	const size = 24 * bsize
	m.run(t, func(p *kernel.Proc) {
		makeFile(t, p, "/d0/src", size, 43)
		_ = m.cache.InvalidateDev(p.Ctx(), m.disks[0])
		src, _ := p.Open("/d0/src", kernel.ORdOnly)
		dst, _ := p.Open("/dev/null", kernel.OWrOnly)
		n, err := Splice(p, src, dst, EOF)
		if err != nil || n != size {
			t.Fatalf("splice: n=%d err=%v", n, err)
		}
	})
	if null.BytesWritten() != size {
		t.Fatalf("null consumed %d", null.BytesWritten())
	}
}

func TestSpliceUnsupportedCombination(t *testing.T) {
	// A sink-only device (a DAC) cannot be a splice source.
	m := newMachine(t, disk.RAMDisk)
	dev.NewDAC(m.k, dev.DACParams{Path: "/dev/snd", Rate: 1e6})
	m.run(t, func(p *kernel.Proc) {
		snd, _ := p.Open("/dev/snd", kernel.ORdWr)
		dst, _ := p.Open("/d1/out", kernel.OCreat|kernel.OWrOnly)
		if _, err := Splice(p, snd, dst, 100); err != kernel.ErrOpNotSupp {
			t.Fatalf("DAC→file splice: %v, want ErrOpNotSupp", err)
		}
	})
}

func TestSpliceSocketToFile(t *testing.T) {
	// The source→file extension: datagrams land in a file, staged
	// through destination cache buffers.
	m := newMachine(t, disk.RZ58)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	producer, _ := net.NewSocket(2)
	producer.Connect(1)

	const dsize = 1000 // deliberately unaligned with 8KB blocks
	const ndgrams = 50
	const total = dsize * ndgrams
	want := make([]byte, total)

	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		msg := make([]byte, dsize)
		for i := 0; i < ndgrams; i++ {
			for j := range msg {
				msg[j] = byte(i) ^ byte(j*3)
				want[i*dsize+j] = msg[j]
			}
			if _, err := p.Write(fd, msg); err != nil {
				t.Errorf("produce: %v", err)
			}
		}
	})
	m.run(t, func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		dst, _ := p.Open("/d1/landing", kernel.OCreat|kernel.OWrOnly)
		n, h, err := SpliceOpts(p, inFD, dst, total, Options{})
		if err != nil {
			t.Fatalf("socket→file splice: %v", err)
		}
		if n != total {
			t.Fatalf("moved %d, want %d", n, total)
		}
		if st := h.Stats(); st.Copied == 0 {
			t.Fatalf("staging copies not accounted: %+v", st)
		}
		got := readAll(t, p, "/d1/landing")
		if !bytes.Equal(got, want) {
			t.Fatal("socket→file splice corrupted data")
		}
	})
}

func TestSpliceSocketToFileShortEOF(t *testing.T) {
	// Producer closes early: the splice lands what arrived (including a
	// partial block) and completes with the short count.
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	producer, _ := net.NewSocket(2)
	producer.Connect(1)

	const sent = 3 * 700
	m.k.Spawn("producer", func(p *kernel.Proc) {
		fd := p.InstallFile(producer, kernel.OWrOnly)
		for i := 0; i < 3; i++ {
			_, _ = p.Write(fd, make([]byte, 700))
		}
		_ = p.Close(fd) // EOF marker
	})
	m.run(t, func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		dst, _ := p.Open("/d1/short", kernel.OCreat|kernel.OWrOnly)
		n, err := Splice(p, inFD, dst, 100*bsize) // ask for far more
		if err != nil {
			t.Fatalf("splice: %v", err)
		}
		if n != sent {
			t.Fatalf("moved %d, want %d (short EOF)", n, sent)
		}
		got := readAll(t, p, "/d1/short")
		if len(got) < sent {
			t.Fatalf("file holds %d bytes, want >= %d", len(got), sent)
		}
	})
}

func TestSpliceSocketToFileUnboundedRejected(t *testing.T) {
	m := newMachine(t, disk.RAMDisk)
	net := socket.NewNet(m.k, socket.Loopback())
	in, _ := net.NewSocket(1)
	m.run(t, func(p *kernel.Proc) {
		inFD := p.InstallFile(in, kernel.ORdOnly)
		dst, _ := p.Open("/d1/out", kernel.OCreat|kernel.OWrOnly)
		if _, err := Splice(p, inFD, dst, EOF); err != kernel.ErrInval {
			t.Fatalf("unbounded socket→file: %v, want ErrInval", err)
		}
	})
}
