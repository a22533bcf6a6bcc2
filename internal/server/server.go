// Package server implements a concurrent file-server engine on top of
// the stream transport: an accept loop hands each incoming connection
// to its own handler process, and each handler serves file requests
// either through the read/write copy path (cp) or by splicing the file
// straight onto the connection (scp) — the paper's §7 server scenario,
// where the in-kernel data path is what keeps the CPU available as
// client fan-out grows.
//
// The request protocol is deliberately minimal: a client sends one
// request byte, the server answers with the whole file, and the
// connection carries any number of requests until the client closes
// its half, at which point the handler closes the other.
package server

import (
	"fmt"

	"kdp/internal/kernel"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// Mode selects the serving data path: one of workload's copy modes.
type Mode = workload.CopyMode

// Serving modes.
const (
	// ModeCopy serves with read(file)+write(conn): two user copies per
	// block, both charged to the handler process.
	ModeCopy = workload.CopyReadWrite
	// ModeSplice serves with splice(file, conn): the data moves at
	// interrupt level and never crosses the user boundary.
	ModeSplice = workload.CopySplice
)

// Engine selects the server's process model.
type Engine int

// Process models.
const (
	// EngineProcs is the classic model: one handler process per
	// accepted connection.
	EngineProcs Engine = iota
	// EngineEvent is a single-process event loop: one process polls
	// every descriptor and drives per-connection state machines with
	// nonblocking I/O (copy mode) or one async splice per request
	// (splice mode).
	EngineEvent
)

// Path is one (engine, data path) pairing the server implements.
type Path struct {
	Engine Engine
	Mode   Mode
	// Label names the pairing in sweeps and metrics: the data path's
	// own name under EngineProcs, event/escp under the event loop.
	Label string
}

// Paths is the one table of valid pairings — the server-scalability
// grid (copy vs splice on each engine) that kdpbench -sweep server and
// kdptrace -server range over. Start refuses a Config whose (Engine,
// Mode) is not listed.
var Paths = []Path{
	{EngineProcs, ModeCopy, ModeCopy.String()},
	{EngineProcs, ModeSplice, ModeSplice.String()},
	{EngineEvent, ModeCopy, "event"},
	{EngineEvent, ModeSplice, "escp"},
}

// lookup returns the table entry for an engine/mode pair, or nil.
func lookup(e Engine, m Mode) *Path {
	for i := range Paths {
		if Paths[i].Engine == e && Paths[i].Mode == m {
			return &Paths[i]
		}
	}
	return nil
}

// ModeName returns the sweep label for an engine/mode pair: cp, scp
// (process per connection) and event, escp (event loop); empty for
// a pair the server does not implement.
func ModeName(e Engine, m Mode) string {
	if path := lookup(e, m); path != nil {
		return path.Label
	}
	return ""
}

// Config describes one server instance.
type Config struct {
	// Name labels the server's processes and trace events.
	Name string
	// Transport is the listening endpoint (the engine calls Listen).
	Transport *stream.Transport
	// Path is the file served for every request.
	Path string
	// FileBytes is the response length (the file's size; clients know
	// it and read exactly this much per request).
	FileBytes int64
	// Mode picks the data path.
	Mode Mode
	// Engine picks the process model.
	Engine Engine
	// Conns is the number of connections to accept before the accept
	// loop exits; the engine is done once they all close.
	Conns int
}

// Server is a running file server.
type Server struct {
	cfg  Config
	path *Path
	k    *kernel.Kernel

	port *complPort // event engine's splice completion queue

	accepted int64
	requests int64
	bytes    int64
}

// Accepted returns connections accepted so far.
func (s *Server) Accepted() int64 { return s.accepted }

// Requests returns requests served to completion.
func (s *Server) Requests() int64 { return s.requests }

// BytesServed returns total response bytes written or spliced.
func (s *Server) BytesServed() int64 { return s.bytes }

// Start spawns the serving engine: an accept loop plus per-connection
// handlers (EngineProcs), or one event-loop process (EngineEvent). It
// panics if the engine does not implement the configured data path.
func Start(k *kernel.Kernel, cfg Config) *Server {
	s := &Server{cfg: cfg, path: lookup(cfg.Engine, cfg.Mode), k: k}
	if s.path == nil {
		panic(fmt.Sprintf("server %s: engine %d does not implement the %s data path", cfg.Name, cfg.Engine, cfg.Mode))
	}
	if cfg.Engine == EngineEvent {
		k.Spawn(cfg.Name+"-event", s.eventLoop)
	} else {
		k.Spawn(cfg.Name+"-accept", s.acceptLoop)
	}
	return s
}

func (s *Server) acceptLoop(p *kernel.Proc) {
	if err := s.cfg.Transport.Listen(p); err != nil {
		panic(fmt.Sprintf("server %s: listen: %v", s.cfg.Name, err))
	}
	for i := 0; i < s.cfg.Conns; i++ {
		fd, conn, err := s.cfg.Transport.Accept(p)
		if err != nil {
			panic(fmt.Sprintf("server %s: accept: %v", s.cfg.Name, err))
		}
		s.accepted++
		s.k.TraceEmit(trace.KindServerAccept, p.Pid(), int64(conn.RemotePort()), s.accepted, s.cfg.Name)
		// The handler owns the descriptor: re-home it into the new
		// process's table and release it here, so the accept loop can
		// exit while handlers are still serving.
		handler := fmt.Sprintf("%s-h%d", s.cfg.Name, s.accepted)
		if _, err := p.ReleaseFD(fd); err != nil {
			panic(fmt.Sprintf("server %s: release fd: %v", s.cfg.Name, err))
		}
		s.k.Spawn(handler, func(hp *kernel.Proc) {
			s.handle(hp, conn)
		})
	}
}

// handle serves requests on one connection until the client closes,
// each with the handler's own mover: file descriptor to connection
// descriptor, FileBytes bytes. The event loop drives its two paths from
// its own state machine instead (event.go).
func (s *Server) handle(p *kernel.Proc, conn *stream.Conn) {
	move := rewound(s.path.Mode)
	cfd := p.InstallFile(conn, kernel.ORdWr)
	src, err := p.Open(s.cfg.Path, kernel.ORdOnly)
	if err != nil {
		panic(fmt.Sprintf("server %s: open %s: %v", s.cfg.Name, s.cfg.Path, err))
	}
	req := make([]byte, 1)
	for {
		n, err := p.Read(cfd, req)
		if err != nil || n == 0 {
			break // client closed (or connection failed)
		}
		served, err := move(p, src, cfd, s.cfg.FileBytes)
		s.bytes += served
		if err != nil || served < s.cfg.FileBytes {
			break
		}
		s.requests++
	}
	_ = p.Close(src)
	_ = p.Close(cfd)
}

// rewound returns mode's workload mover (8KB user buffer, no loop
// cost) behind the lseek that restarts the file for each request.
func rewound(mode Mode) workload.Mover {
	move := workload.CopySpec{Mode: mode, BufSize: 8192}.Mover()
	return func(p *kernel.Proc, src, cfd int, size int64) (int64, error) {
		if _, err := p.Lseek(src, 0, kernel.SeekSet); err != nil {
			return 0, err
		}
		return move(p, src, cfd, size)
	}
}
