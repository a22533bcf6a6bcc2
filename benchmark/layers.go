package main

import (
	"kdp/internal/sim"
	"kdp/internal/trace"
)

// layerFold accumulates a traced iteration's per-layer counts from the
// events inside its timed windows. Counts come from folding the events
// through trace.New(nil); the disk queue and service figures are read
// off the events' documented arguments (docs/TRACING.md).
type layerFold struct {
	agg    *trace.Tracer
	ledger map[string]*trace.Tracer // CPU ledger per data path: mach.role → mach.ledger

	diskBusy, diskSpan sim.Duration
	queueSum, queueN   int64
}

func newLayerFold() *layerFold {
	return &layerFold{
		agg:    trace.New(nil),
		ledger: map[string]*trace.Tracer{"cp": trace.New(nil), "scp": trace.New(nil)},
	}
}

func (f *layerFold) emit(m *mach, ev trace.Event) {
	f.agg.Emit(ev)
	m.ledger.Emit(ev) // a nil tracer is inert
	switch ev.Kind {
	case trace.KindDiskQueue:
		f.queueSum += ev.Arg2
		f.queueN++
	case trace.KindDiskStart:
		f.diskBusy += sim.Duration(ev.Arg2)
	}
}

// values writes the fold's exact per-layer counts into v.
func (f *layerFold) values(v map[string]float64) {
	mt := f.agg.Metrics()
	n := func(k trace.Kind) float64 { return float64(mt.EventCount[k]) }

	for role, t := range f.ledger {
		lm := t.Metrics()
		v["kernel.cpu_user_ms_"+role] = lm.CPUUser.Milliseconds()
		v["kernel.cpu_sys_ms_"+role] = lm.CPUSys.Milliseconds()
		v["kernel.cpu_intr_ms_"+role] = lm.CPUIntr.Milliseconds()
		v["kernel.cpu_switch_ms_"+role] = lm.CPUSwitch.Milliseconds()
		v["kernel.cpu_idle_ms_"+role] = lm.CPUIdle.Milliseconds()
	}
	v["kernel.syscalls"] = n(trace.KindSyscallEnter)
	v["kernel.callouts_fired"] = n(trace.KindCalloutFire)

	v["buf.hits"] = float64(mt.BufHits)
	v["buf.misses"] = float64(mt.BufMisses)
	v["buf.hit_ratio"] = ratio(float64(mt.BufHits), float64(mt.BufHits+mt.BufMisses))
	v["buf.ra_issued"] = float64(mt.BufRaIssued)
	v["buf.ra_hit_ratio"] = ratio(float64(mt.BufRaHits), float64(mt.BufRaIssued))
	v["buf.ra_waste"] = float64(mt.BufRaWaste)
	v["buf.cluster_len_mean"] = ratio(float64(mt.ClusterLen()), n(trace.KindDiskCluster))

	v["disk.reads"] = n(trace.KindDiskRead)
	v["disk.writes"] = n(trace.KindDiskWrite)
	v["disk.errors"] = n(trace.KindDiskError)
	v["disk.busy_ms"] = f.diskBusy.Milliseconds()
	v["disk.util_pct"] = 100 * ratio(float64(f.diskBusy), float64(f.diskSpan))
	v["disk.queue_mean"] = ratio(float64(f.queueSum), float64(f.queueN))

	v["splice.bytes"] = float64(mt.SpliceBytes)
	v["splice.reads"] = n(trace.KindSpliceRead)
	v["splice.writes"] = n(trace.KindSpliceWrite)
	v["splice.stalls"] = n(trace.KindSpliceStall)
	v["splice.peak_reads"] = float64(mt.SplicePeakReads)
	v["splice.peak_writes"] = float64(mt.SplicePeakWrites)

	v["vm.faults"] = float64(mt.VMFaults)
	v["vm.pageins"] = float64(mt.VMPageins)
	v["vm.pageouts"] = float64(mt.VMPageouts)
	v["vm.cows"] = float64(mt.VMCows)

	v["socket.tx_bytes"] = float64(mt.NetTxBytes)
	v["socket.rx_bytes"] = float64(mt.NetRxBytes)
	v["socket.dropped"] = n(trace.KindNetDrop)

	v["stream.acks"] = n(trace.KindStreamAck)
	v["stream.retx"] = n(trace.KindStreamRetx)
	v["stream.stalls"] = n(trace.KindStreamStall)
	v["stream.retx_share"] = ratio(n(trace.KindStreamRetx), n(trace.KindNetTx))

	v["server.accepts"] = n(trace.KindServerAccept)

	v["trace.events_per_iter"] = float64(mt.Events())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
