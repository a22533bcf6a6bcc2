package bench

import (
	"runtime"
	"testing"

	"kdp/internal/server"
)

// TestServerSweepShape checks the paper's qualitative claim at fan-out:
// splice serving leaves more CPU available than read/write serving at
// every client count, and the availability gap widens as clients grow.
func TestServerSweepShape(t *testing.T) {
	prevGap := -1.0
	for _, n := range []int{1, 2, 4, 8} {
		cp, _ := MeasureServer(n, server.EngineProcs, server.ModeCopy, nil)
		scp, _ := MeasureServer(n, server.EngineProcs, server.ModeSplice, nil)
		if scp.AvailPct <= cp.AvailPct {
			t.Fatalf("%d clients: scp availability %.1f%% not above cp %.1f%%",
				n, scp.AvailPct, cp.AvailPct)
		}
		gap := scp.AvailPct - cp.AvailPct
		if gap <= prevGap {
			t.Fatalf("%d clients: availability gap %.1f did not widen (previous %.1f)",
				n, gap, prevGap)
		}
		prevGap = gap
		if cp.Requests == 0 || scp.Requests == 0 {
			t.Fatalf("%d clients: no requests completed (cp=%d scp=%d)",
				n, cp.Requests, scp.Requests)
		}
	}
}

// TestServerEventEngine checks the event-loop acceptance claim: a
// single process drives all 8 clients, serving requests in both data
// paths, and the async-splice path (escp) leaves more CPU available
// than nonblocking copies (event). That escp tracks the
// process-per-connection splice server (scp) at every fan-out is
// cmd/kdpbench's TestEventTracksProcs, over the golden.
func TestServerEventEngine(t *testing.T) {
	ev, _ := MeasureServer(8, server.EngineEvent, server.ModeCopy, nil)
	escp, _ := MeasureServer(8, server.EngineEvent, server.ModeSplice, nil)
	if ev.Requests == 0 || escp.Requests == 0 {
		t.Fatalf("event engine served no requests (event=%d escp=%d)",
			ev.Requests, escp.Requests)
	}
	if escp.AvailPct <= ev.AvailPct {
		t.Fatalf("escp availability %.1f%% not above nonblocking-copy event mode %.1f%%",
			escp.AvailPct, ev.AvailPct)
	}
}

// TestServerSweepDeterministic regenerates the table under different
// GOMAXPROCS settings and requires byte-identical output.
func TestServerSweepDeterministic(t *testing.T) {
	first, _ := RunSweep("server", nil)
	prev := runtime.GOMAXPROCS(1)
	second, _ := RunSweep("server", nil)
	runtime.GOMAXPROCS(prev)
	if first != second {
		t.Fatalf("server sweep differs across GOMAXPROCS:\n--- default ---\n%s\n--- GOMAXPROCS=1 ---\n%s", first, second)
	}
}
