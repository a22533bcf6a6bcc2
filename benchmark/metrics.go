package main

import (
	"encoding/json"
	"math"
	"sort"
)

// A metricDef names one reported number. Exact metrics are simulated
// values and counts: with a fixed seed they repeat bit for bit, so any
// difference between two runs is a change to the model, not noise.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
	Exact  bool
}

// endToEnd is what a user of the simulator sees, on both clocks. Every
// workload defines every one of them and none is ever zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ms_per_iter", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "host_alloc_kb_per_iter", Unit: "KB", Better: "lower", Bound: 0.1},
	{Name: "sim_ms_per_iter", Unit: "sim_ms", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "sim_cpu_ms_per_iter", Unit: "sim_ms", Better: "lower", Bound: 0.25, Exact: true},
}

func exact(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
}

func host(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer is the traced pass: the paper's cells (result.*), then one
// group per module of the simulator, the benchmark's own host spans and
// the Go runtime's view of the process. probe.* metrics are host-time
// micro-probes over the layer's public functions.
var perLayer = []metricDef{
	exact("result.sim_kbs_cp", "sim_KB/s", "higher"),
	exact("result.sim_kbs_scp", "sim_KB/s", "higher"),
	exact("result.sim_kbs_mcp", "sim_KB/s", "higher"),
	exact("result.sim_cpu_ms_per_mb_cp", "sim_ms/MB", "lower"),
	exact("result.sim_cpu_ms_per_mb_scp", "sim_ms/MB", "lower"),
	exact("result.sim_avail_pct_cp", "%", "higher"),
	exact("result.sim_avail_pct_scp", "%", "higher"),
	exact("result.sim_req_p50_ms_cp", "sim_ms", "lower"),
	exact("result.sim_req_p95_ms_cp", "sim_ms", "lower"),
	exact("result.sim_req_p50_ms_scp", "sim_ms", "lower"),
	exact("result.sim_req_p95_ms_scp", "sim_ms", "lower"),
	exact("result.sim_req_n", "count", "higher"),
	exact("result.sim_paper_err_pct", "%", "lower"),
	exact("result.ops_failed_share", "ratio", "lower"),

	exact("sim.events_per_iter", "count", "lower"),
	host("sim.host_ns_per_event", "ns", "lower"),
	host("sim.sim_ms_per_host_s", "sim_ms/s", "higher"),
	host("sim.probe.schedule_run_ns", "ns", "lower"),
	host("sim.probe.schedule_run_allocs", "count", "lower"),

	exact("kernel.cpu_user_ms_cp", "sim_ms", "lower"),
	exact("kernel.cpu_sys_ms_cp", "sim_ms", "lower"),
	exact("kernel.cpu_intr_ms_cp", "sim_ms", "lower"),
	exact("kernel.cpu_switch_ms_cp", "sim_ms", "lower"),
	exact("kernel.cpu_idle_ms_cp", "sim_ms", "higher"),
	exact("kernel.cpu_user_ms_scp", "sim_ms", "lower"),
	exact("kernel.cpu_sys_ms_scp", "sim_ms", "lower"),
	exact("kernel.cpu_intr_ms_scp", "sim_ms", "lower"),
	exact("kernel.cpu_switch_ms_scp", "sim_ms", "lower"),
	exact("kernel.cpu_idle_ms_scp", "sim_ms", "higher"),
	exact("kernel.switches", "count", "lower"),
	exact("kernel.interrupts", "count", "lower"),
	exact("kernel.ticks", "count", "lower"),
	exact("kernel.syscalls", "count", "lower"),
	exact("kernel.callouts_fired", "count", "lower"),
	host("kernel.probe.handoff_ns", "ns", "lower"),
	host("kernel.probe.callout_ns", "ns", "lower"),
	host("kernel.probe.syscall_ns", "ns", "lower"),

	exact("buf.hits", "count", "higher"),
	exact("buf.misses", "count", "lower"),
	exact("buf.hit_ratio", "ratio", "higher"),
	exact("buf.recycles", "count", "lower"),
	exact("buf.ra_issued", "count", "higher"),
	exact("buf.ra_hit_ratio", "ratio", "higher"),
	exact("buf.ra_waste", "count", "lower"),
	exact("buf.cluster_len_mean", "blocks", "higher"),
	host("buf.probe.bread_hit_ns", "ns", "lower"),
	host("buf.probe.getblk_miss_ns", "ns", "lower"),
	host("buf.probe.getblk_miss_bytes", "B", "lower"),

	exact("disk.reads", "count", "lower"),
	exact("disk.writes", "count", "lower"),
	exact("disk.busy_ms", "sim_ms", "lower"),
	exact("disk.util_pct", "%", "higher"),
	exact("disk.queue_mean", "requests", "lower"),
	exact("disk.errors", "count", "lower"),
	host("disk.probe.new_ms", "ms", "lower"),
	host("disk.probe.request_ns", "ns", "lower"),

	host("fs.probe.mkfs_ms", "ms", "lower"),
	host("fs.probe.write_8k_ns", "ns", "lower"),
	host("fs.probe.create_unlink_us", "us", "lower"),

	exact("splice.bytes", "B", "higher"),
	exact("splice.reads", "count", "lower"),
	exact("splice.writes", "count", "lower"),
	exact("splice.stalls", "count", "lower"),
	exact("splice.peak_reads", "count", "higher"),
	exact("splice.peak_writes", "count", "higher"),
	host("splice.probe.block_ns", "ns", "lower"),

	exact("vm.faults", "count", "lower"),
	exact("vm.pageins", "count", "lower"),
	exact("vm.pageouts", "count", "lower"),
	exact("vm.cows", "count", "lower"),
	host("vm.probe.fault_ns", "ns", "lower"),

	exact("socket.tx_bytes", "B", "higher"),
	exact("socket.rx_bytes", "B", "higher"),
	exact("socket.dropped", "count", "lower"),
	host("socket.probe.datagram_ns", "ns", "lower"),

	exact("stream.acks", "count", "lower"),
	exact("stream.retx", "count", "lower"),
	exact("stream.stalls", "count", "lower"),
	exact("stream.retx_share", "ratio", "lower"),
	host("stream.probe.segment_ns", "ns", "lower"),

	exact("server.accepts", "count", "higher"),
	exact("server.requests", "count", "higher"),
	exact("server.poll_scanned_per_ready", "ratio", "lower"),
	exact("server.sim_kbs_event", "sim_KB/s", "higher"),
	exact("server.sim_kbs_escp", "sim_KB/s", "higher"),
	exact("server.sim_p95_ms_event", "sim_ms", "lower"),
	exact("server.sim_p95_ms_escp", "sim_ms", "lower"),

	exact("workload.sim_kbs_cpv", "sim_KB/s", "higher"),
	exact("workload.sim_kbs_bcp", "sim_KB/s", "higher"),
	exact("workload.crossings_saved", "count", "higher"),

	exact("simcheck.ops_per_iter", "count", "higher"),
	host("simcheck.host_ms_per_seed", "ms", "lower"),
	host("simcheck.host_ms_per_crash_seed", "ms", "lower"),
	host("simcheck.probe.invariants_us", "us", "lower"),

	exact("trace.events_per_iter", "count", "lower"),
	host("trace.overhead_pct", "%", "lower"),
	host("trace.probe.emit_ns", "ns", "lower"),

	host("bench.span.build_ms", "ms", "lower"),
	host("bench.span.populate_ms", "ms", "lower"),
	host("bench.span.coldstart_ms", "ms", "lower"),
	host("bench.span.move_cp_ms", "ms", "lower"),
	host("bench.span.move_scp_ms", "ms", "lower"),
	host("bench.span.move_mcp_ms", "ms", "lower"),
	host("bench.span.avail_cp_ms", "ms", "lower"),
	host("bench.span.avail_scp_ms", "ms", "lower"),
	host("bench.span.check_ms", "ms", "lower"),
	host("bench.span.verify_ms", "ms", "lower"),
	host("bench.span.drain_ms", "ms", "lower"),

	host("host.yardstick_ms", "ms", "lower"),
	host("host.ms_per_iter_p50", "ms", "lower"),
	host("host.ms_per_iter_iqr_pct", "%", "lower"),
	host("host.allocs_per_iter", "count", "lower"),
	host("host.gc_cycles_per_iter", "count", "lower"),
	host("host.gc_pause_ms_per_iter", "ms", "lower"),
	host("host.peak_rss_mb", "MB", "lower"),
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different metrics.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// dist summarises host-time samples.
type dist struct{ n, p10, p25, p50, p75 float64 }

func summarise(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{
		n:   float64(len(s)),
		p10: quantile(s, 0.10), p25: quantile(s, 0.25),
		p50: quantile(s, 0.50), p75: quantile(s, 0.75),
	}
}
