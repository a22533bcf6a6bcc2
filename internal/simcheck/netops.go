package simcheck

import (
	"fmt"

	"kdp/internal/dev"
	"kdp/internal/kernel"
	"kdp/internal/sim"
	"kdp/internal/stream"
)

// The stream and readiness ops. They need no file oracle: the expected
// bytes are a pure function of (pat, size), so each check is
// self-contained and survives op-sequence bisection. The stream ops run
// over snet, the deliberately lossy link, so every segment's
// retransmission path gets fuzzed.

// transports binds the op's stream endpoints on the lossy net: a server
// and nclients clients, on ports four apart per op so an op's
// transports can never collide with a neighbour's.
func (m *machine) transports(o *op, nclients int) (srv *stream.Transport, clis []*stream.Transport, ok bool) {
	srv, err := stream.NewTransport(m.K, m.snet, 5000+4*o.idx)
	for c := 0; err == nil && c < nclients; c++ {
		var ct *stream.Transport
		ct, err = stream.NewTransport(m.K, m.snet, 5002+4*o.idx+c)
		clis = append(clis, ct)
	}
	if err != nil {
		m.violate("stream-transport", "%s: %v", o.row.name, err)
		return nil, nil, false
	}
	return srv, clis, true
}

// doStreamConn exercises the transport handshake and teardown under
// loss: SYN, SYN-ACK, FIN exchanges all cross the dropping link. The op
// succeeds only if both sides close cleanly; the client's retransmit
// count is folded into the log, so a replay that retransmits
// differently diverges the digest.
func (m *machine) doStreamConn(p *kernel.Proc, o *op) {
	st, cts, ok := m.transports(o, 1)
	if !ok {
		return
	}
	var srvErr error
	srv := m.helper(fmt.Sprintf("acc%d", o.idx), func(rp *kernel.Proc) {
		if err := st.Listen(rp); err != nil {
			srvErr = err
		} else if fd, _, err := st.Accept(rp); err != nil {
			srvErr = err
		} else {
			srvErr = rp.Close(fd)
		}
	})

	fd, conn, cerr := cts[0].Connect(p, st.Port())
	if cerr == nil {
		cerr = p.Close(fd)
	}
	srv.await(p)
	if cerr != nil || srvErr != nil {
		m.violate("stream-conn", "client err %v, server err %v", cerr, srvErr)
		return
	}
	m.opLog(o, "ok retx=%d", conn.Retransmits())
}

// doStreamXfer pushes a generated pattern through a full stream
// connection over the dropping link and requires byte-exact in-order
// delivery.
func (m *machine) doStreamXfer(p *kernel.Proc, o *op) {
	st, cts, ok := m.transports(o, 1)
	if !ok {
		return
	}
	// The worker's I/O buffer holds the pattern and, past it, room for
	// the server's 8 KB reads to land in place.
	const chunk = 8 << 10
	buf := m.ioBuf(o.worker, 0, 2*o.size+chunk)
	want := pattern(buf[:o.size], 0, o.pat)

	var (
		got     = buf[o.size:o.size]
		srvRetx int64
		srvErr  error
	)
	srv := m.helper(fmt.Sprintf("str%d", o.idx), func(rp *kernel.Proc) {
		if err := st.Listen(rp); err != nil {
			srvErr = err
			return
		}
		fd, sc, err := st.Accept(rp)
		if err != nil {
			srvErr = err
			return
		}
		for {
			var n int
			if got, n, err = readOn(rp, fd, got, chunk); err != nil {
				srvErr = err
				break
			}
			if n == 0 {
				break
			}
		}
		if err := rp.Close(fd); err != nil && srvErr == nil {
			srvErr = err
		}
		srvRetx = sc.Retransmits()
	})

	fd, conn, cerr := cts[0].Connect(p, st.Port())
	if cerr == nil {
		if n, err := p.Write(fd, want); err != nil {
			cerr = err
		} else if n != len(want) {
			cerr = fmt.Errorf("short write: %d of %d", n, len(want))
		}
		if err := p.Close(fd); err != nil && cerr == nil {
			cerr = err
		}
	}
	srv.await(p)
	if cerr != nil || srvErr != nil {
		m.violate("stream-xfer", "client err %v, server err %v", cerr, srvErr)
		return
	}
	if len(got) != len(want) {
		m.violate("stream-xfer", "delivered %d bytes, want %d", len(got), len(want))
		return
	}
	if i := firstDiff(got, want); i >= 0 {
		m.violate("stream-xfer-content", "byte %d differs: got %#02x, want %#02x", i, got[i], want[i])
		return
	}
	m.opLog(o, "ok retx=%d/%d", conn.Retransmits(), srvRetx)
}

// drawPoll draws the feeder's delay in ticks, then a pipe-sized payload.
func drawPoll(r *sim.Rand, o *op) {
	o.sigTicks = 1 + r.Intn(10)
	o.size = 1 + r.Intn(4<<10)
}

func textPoll(name string, o *op) string {
	return fmt.Sprintf("%s n=%d delay=%d pat=%#02x", name, o.size, o.sigTicks, o.pat)
}

// doPollWait polls a nonblocking pipe read end while a spawned feeder
// sleeps a seed-derived number of ticks and then writes a known
// pattern. The op-level invariant is the poll contract itself: once
// poll reports the descriptor ready, the very next read must not
// return ErrWouldBlock — a would-block there is a false-ready (or a
// wakeup delivered without cause). Three variants cover the timeout
// shapes: infinite wait, a bounded wait that may expire and re-poll,
// and a zero-timeout scan before the real wait.
func (m *machine) doPollWait(p *kernel.Proc, o *op) {
	pipe := dev.NewPipe(m.K, "", pipeCap)
	rfd := p.InstallFile(pipe, kernel.ORdOnly)
	if _, err := p.Fcntl(rfd, kernel.FSetFL, kernel.ONonblock); err != nil {
		m.violate("poll-wait", "fcntl: %v", err)
		return
	}
	// The worker's I/O buffer holds the pattern and, past it, room for
	// the 1 KB reads to land in place.
	const chunk = 1 << 10
	n := o.size
	buf := m.ioBuf(o.worker, 0, 2*n+chunk)
	want := pattern(buf[:n], 0, o.pat)
	tick := m.K.Config().TickDuration()

	fed := m.helper(fmt.Sprintf("pfeed%d", o.idx), func(wp *kernel.Proc) {
		wfd := wp.InstallFile(pipe, kernel.OWrOnly)
		wp.SleepFor(sim.Duration(o.sigTicks) * tick)
		wp.Write(wfd, want)
		pipe.CloseWrite()
		wp.Close(wfd)
	})

	fds := []kernel.PollFd{{FD: rfd, Events: kernel.PollIn}}
	timeouts := 0
	poll := func() bool { // block until ready, counting bounded-wait expiries; false once it has raised a violation
		for {
			ready, perr := p.Poll(fds, pollTimeout(o))
			if perr == kernel.ErrIntr {
				// EINTR: consume the signal and retry, as any real
				// program's poll loop would.
				p.DeliverSignals()
				continue
			}
			if perr != nil {
				m.violate("poll-wait", "%v", perr)
				return false
			}
			if ready > 0 {
				if fds[0].Revents&(kernel.PollIn|kernel.PollHup) == 0 {
					m.violate("poll-ready-bits", "revents=%#x lacks POLLIN/POLLHUP", fds[0].Revents)
					return false
				}
				return true
			}
			timeouts++
		}
	}
	if int(o.pat)%3 == 2 {
		// Zero-timeout scan first: exercises the non-blocking path. The
		// feeder usually hasn't run yet, but a quantum preemption can
		// legitimately delay us past its delay, so readiness here is
		// logged, not asserted.
		ready, perr := p.Poll(fds, 0)
		if perr != nil {
			m.violate("poll-wait", "zero-timeout poll: %v", perr)
			return
		}
		if ready > 0 {
			m.logf("op %d: zero-timeout poll already ready", o.idx)
		}
	}
	got := buf[n:n]
	justPolled := false
	for len(got) < n {
		if !justPolled {
			if !poll() {
				return
			}
			justPolled = true
		}
		var r int
		var rerr error
		got, r, rerr = readOn(p, rfd, got, chunk)
		if rerr == kernel.ErrWouldBlock {
			if justPolled {
				m.violate("poll-ready-read", "descriptor reported ready but read would block (got %d of %d)", len(got), n)
				return
			}
			continue
		}
		if rerr != nil {
			m.violate("poll-wait", "read: %v", rerr)
			return
		}
		justPolled = false
		if r == 0 {
			break
		}
	}
	fed.await(p)
	p.Close(rfd)
	if len(got) != n {
		m.violate("poll-wait", "drained %d bytes, want %d", len(got), n)
		return
	}
	if i := firstDiff(got, want); i >= 0 {
		m.violate("poll-wait-content", "byte %d differs: got %#02x, want %#02x", i, got[i], want[i])
		return
	}
	m.opLog(o, "ok n=%d timeouts=%d", n, timeouts)
}

// pollTimeout derives the op's poll timeout: infinite for even
// patterns, a bounded wait (which may expire before the feeder's delay
// and force a re-poll) otherwise.
func pollTimeout(o *op) int {
	if int(o.pat)%3 == 1 {
		return 1 + o.sigTicks/2
	}
	return -1
}

// doEventServe runs a miniature single-process event-loop server over
// the lossy stream net: the op's own process polls the listener plus
// every accepted connection, accepts nonblockingly, reads the request
// byte nonblockingly, and pushes a patterned response through
// nonblocking writes gated on POLLOUT. One or two spawned clients each
// request once, verify the response byte-exactly, and close. Every
// dispatch enforces the readiness contract: a descriptor poll reported
// readable (writable) must make progress on read (write) without
// ErrWouldBlock.
func (m *machine) doEventServe(p *kernel.Proc, o *op) {
	nclients := 1 + int(o.pat)%2
	// The worker's I/O buffer holds the pattern and, past it, room for
	// each client's 4 KB reads to land in place.
	const chunk = 4096
	size := o.size
	buf := m.ioBuf(o.worker, 0, size+nclients*(size+chunk))
	want := pattern(buf[:size], 0, o.pat)

	st, cts, ok := m.transports(o, nclients)
	if !ok {
		return
	}
	if err := st.Listen(p); err != nil {
		m.violate("event-serve", "listen: %v", err)
		return
	}
	lfd := p.InstallFile(st.File(), kernel.ORdOnly)

	cliErrs := make([]error, nclients)
	clients := m.newGate(nclients)
	for c, ct := range cts {
		c, ct := c, ct
		m.K.Spawn(fmt.Sprintf("ecli%d.%d", o.idx, c), func(cp *kernel.Proc) {
			defer clients.exit()
			fd, _, err := ct.Connect(cp, st.Port())
			if err != nil {
				cliErrs[c] = err
				return
			}
			defer cp.Close(fd)
			if _, err := cp.Write(fd, []byte{1}); err != nil {
				cliErrs[c] = err
				return
			}
			lo := size + c*(size+chunk)
			got := buf[lo : lo : lo+size+chunk]
			for len(got) < size {
				var n int
				if got, n, err = readOn(cp, fd, got, chunk); err != nil {
					cliErrs[c] = err
					return
				}
				if n == 0 {
					cliErrs[c] = fmt.Errorf("early eof after %d of %d bytes", len(got), size)
					return
				}
			}
			if i := firstDiff(got, want); i >= 0 {
				cliErrs[c] = fmt.Errorf("byte %d differs: got %#02x want %#02x", i, got[i], want[i])
			}
		})
	}

	// esconn is one connection's place in the serve cycle: waiting for
	// its request byte, pushing the response, or waiting for the
	// client's close.
	type esconn struct {
		fd     int
		gotReq bool
		sent   int
		dead   bool
	}
	var conns []*esconn
	accepted := 0
	fds := make([]kernel.PollFd, 0, nclients+1)
	owners := make([]*esconn, 0, nclients+1)
	for {
		live := 0
		for _, ec := range conns {
			if !ec.dead {
				live++
			}
		}
		if accepted == nclients && live == 0 {
			break
		}
		fds, owners = fds[:0], owners[:0]
		if accepted < nclients {
			fds = append(fds, kernel.PollFd{FD: lfd, Events: kernel.PollIn})
			owners = append(owners, nil)
		}
		for _, ec := range conns {
			if ec.dead {
				continue
			}
			ev := kernel.PollIn
			if ec.gotReq && ec.sent < size {
				ev = kernel.PollOut
			}
			fds = append(fds, kernel.PollFd{FD: ec.fd, Events: ev})
			owners = append(owners, ec)
		}
		if _, perr := p.Poll(fds, -1); perr != nil {
			if perr == kernel.ErrIntr {
				p.DeliverSignals()
				continue
			}
			m.violate("event-serve", "poll: %v", perr)
			return
		}
		for i := range fds {
			if fds[i].Revents == 0 {
				continue
			}
			if owners[i] == nil { // listener
				first := true
				for {
					cfd, _, aerr := st.AcceptNB(p)
					if aerr == kernel.ErrWouldBlock {
						if first {
							m.violate("event-ready-accept", "listener reported readable but accept would block")
							return
						}
						break
					}
					if aerr != nil {
						m.violate("event-serve", "accept: %v", aerr)
						return
					}
					first = false
					if _, ferr := p.Fcntl(cfd, kernel.FSetFL, kernel.ONonblock); ferr != nil {
						m.violate("event-serve", "fcntl: %v", ferr)
						return
					}
					accepted++
					conns = append(conns, &esconn{fd: cfd})
				}
				continue
			}
			ec := owners[i]
			if ec.dead {
				continue
			}
			if !ec.gotReq || ec.sent >= size {
				b := make([]byte, 1)
				r, rerr := p.Read(ec.fd, b)
				if rerr == kernel.ErrWouldBlock {
					m.violate("event-ready-read", "connection reported readable but read would block")
					return
				}
				if rerr != nil || r == 0 {
					// Client closed its half (after the response) or the
					// connection failed; either way this conn is done.
					ec.dead = true
					p.Close(ec.fd)
					continue
				}
				ec.gotReq = true
			}
			firstWrite := fds[i].Revents&kernel.PollOut != 0
			for ec.sent < size {
				wn, werr := p.Write(ec.fd, want[ec.sent:])
				if werr == kernel.ErrWouldBlock {
					if firstWrite {
						m.violate("event-ready-write", "connection reported writable but write would block")
						return
					}
					break
				}
				if werr != nil {
					ec.dead = true
					p.Close(ec.fd)
					break
				}
				firstWrite = false
				ec.sent += wn
			}
		}
	}
	p.Close(lfd)
	clients.await(p)
	for c, cerr := range cliErrs {
		if cerr != nil {
			m.violate("event-serve", "client %d: %v", c, cerr)
			return
		}
	}
	m.opLog(o, "ok clients=%d", nclients)
}
