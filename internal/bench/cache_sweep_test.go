package bench

import (
	"runtime"
	"strings"
	"testing"
)

// TestSweepCacheReadaheadWins pins the ablation's headline claims: with
// readahead on, the sequential scan moves more data per second at no
// extra busy CPU, and random access is unharmed because the window
// collapses before speculating.
func TestSweepCacheReadaheadWins(t *testing.T) {
	off := measureCacheCell("seq-read", -1)
	on := measureCacheCell("seq-read", 8)
	if on.kbs <= off.kbs {
		t.Errorf("seq-read throughput with readahead = %.0f KB/s, want > %.0f (off)", on.kbs, off.kbs)
	}
	if on.raHits == 0 {
		t.Error("readahead-on scan consumed no readahead buffers")
	}
	// Equal-or-better CPU availability: allow sub-millisecond jitter
	// (the sweep table rounds to 10ms anyway).
	if extra := on.busy - off.busy; extra.Seconds() > 0.01 {
		t.Errorf("readahead costs %.4fs extra busy CPU, want <= 0.01s", extra.Seconds())
	}
	randOff := measureCacheCell("rand-read", -1)
	randOn := measureCacheCell("rand-read", 8)
	if randOn.raWaste != 0 {
		t.Errorf("random access wasted %d readaheads, want 0 (window must collapse)", randOn.raWaste)
	}
	if randOn.kbs < randOff.kbs*0.99 {
		t.Errorf("random-read throughput regressed with readahead: %.0f < %.0f KB/s", randOn.kbs, randOff.kbs)
	}
}

// TestSweepCacheDeterministicAcrossGOMAXPROCS: the cache sweep table
// is byte-identical whether the Go runtime is serial or parallel — the
// simulation clock, not the host scheduler, orders every event.
func TestSweepCacheDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var tables [2]string
	for i, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		var err error
		if tables[i], err = RunSweep("cache", nil); err != nil {
			t.Fatal(err)
		}
	}
	if tables[0] != tables[1] {
		t.Errorf("cache sweep differs across GOMAXPROCS:\n--- procs=1 ---\n%s\n--- procs=8 ---\n%s",
			tables[0], tables[1])
	}
	if !strings.Contains(tables[0], "seq-read") || !strings.Contains(tables[0], "rand-read") {
		t.Errorf("sweep table missing expected rows:\n%s", tables[0])
	}
}
