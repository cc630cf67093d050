package main

// metric is one reported number. For per-layer metrics, moves names the
// end-to-end metric a change to the layer should move, on names the
// workload where it should move, and flat the workload that must stay
// flat; later claims cite these names.
type metric struct {
	name, unit, better string
	moves, on, flat    string
}

// endToEnd are the host-time metrics of an untraced run. fail_frac is not
// among them: failures travel in the result's attempted/failed counts,
// because a metric reported here must never read zero.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sim_x", unit: "sim_s/s", better: "higher"},
	{name: "cpu_per_sim_s", unit: "cpu_s/sim_s", better: "lower"},
	{name: "alloc_mb_per_sim_s", unit: "MB/sim_s", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer a workload does not exercise, or whose seam is not visible
// from outside on that workload, reads 0.
var perLayer = []metric{
	{name: "sim.events", unit: "count", better: "lower", moves: "sim_x, alloc_mb_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "run.allocs_per_event", unit: "count", better: "lower", moves: "alloc_mb_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "tcp.ack_ns", unit: "ns", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "tcp.data_ns", unit: "ns", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "tcp.segs_out", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp", flat: "bulk-bdp"},
	{name: "tcp.retrans_frac", unit: "frac", better: "lower", moves: "none (count must not change)", on: "bulk-bdp", flat: "bulk-bdp"},
	{name: "tcp.rto_fires", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp, rpc-fanout", flat: "bulk-bdp, rpc-fanout"},
	{name: "tcp.dup_acks", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp, rpc-fanout", flat: "bulk-bdp, rpc-fanout"},
	{name: "sockbuf.writer_blocks", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp, rpc-fanout", flat: "bulk-bdp, rpc-fanout"},
	{name: "netem.pkts", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp", flat: "bulk-bdp"},
	{name: "aqm.drops", unit: "count", better: "lower", moves: "none (count must not change)", on: "bulk-bdp", flat: "bulk-bdp"},
	{name: "aqm.drop_frac", unit: "frac", better: "lower", moves: "none (count must not change)", on: "bulk-bdp", flat: "bulk-bdp"},
	{name: "core.samples", unit: "count", better: "higher", moves: "fail_frac, sim_x", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "core.flagged_frac", unit: "frac", better: "lower", moves: "fail_frac, sim_x", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "core.violations", unit: "count", better: "lower", moves: "fail_frac, sim_x", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "core.check_ms", unit: "ms", better: "lower", moves: "sim_x", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "fleet.requests", unit: "count", better: "higher", moves: "fail_frac", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "fleet.abandoned", unit: "count", better: "lower", moves: "fail_frac", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "fleet.restarts", unit: "count", better: "lower", moves: "fail_frac", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "fleet.checkpoints", unit: "count", better: "lower", moves: "sim_x", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "reqtrace.report_ms", unit: "ms", better: "lower", moves: "sim_x", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "reqtrace.max_residual", unit: "frac", better: "lower", moves: "fail_frac", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "fleet.polls", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "fleet.tracker_polls", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "fleet.escalations", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "fleet.demotions", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "fleet.ns_per_poll", unit: "ns", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "fleet.bytes_per_flow", unit: "B", better: "lower", moves: "live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "stream.windows", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "overload.sheds", unit: "count", better: "lower", moves: "sim_x, live_heap_mb", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "cpu.sim", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.tcp", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.stack", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.sockbuf", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.netem", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.aqm", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.core", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "cpu.fleet", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "cpu.waterfall", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "rpc-fanout", flat: "fleet-scale"},
	{name: "cpu.reqtrace", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "rpc-fanout", flat: "bulk-bdp"},
	{name: "cpu.trace", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.telemetry", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "cpu.overload", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "fleet-scale", flat: "bulk-bdp"},
	{name: "cpu.other", unit: "frac", better: "lower", moves: "sim_x, cpu_per_sim_s", on: "bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.alloc_gc", unit: "frac", better: "lower", moves: "cpu_per_sim_s", on: "rpc-fanout, bulk-bdp", flat: "fleet-scale"},
	{name: "cpu.sched", unit: "frac", better: "lower", moves: "cpu_per_sim_s, sim_x", on: "rpc-fanout, bulk-bdp", flat: "fleet-scale"},
	{name: "gc.cycles", unit: "count", better: "lower", moves: "cpu_per_sim_s", on: "rpc-fanout, bulk-bdp", flat: "fleet-scale"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", moves: "none", on: "all", flat: "all"},
}

// cpuPackages are the element/internal packages whose self time the
// traced run's CPU profile reports as cpu.<pkg>; any other package's time
// lands in cpu.other.
var cpuPackages = []string{
	"sim", "tcp", "stack", "sockbuf", "netem", "aqm", "core", "fleet",
	"waterfall", "reqtrace", "trace", "telemetry", "overload",
}

// layerTable renders perLayer for the traced run's output file, so every
// result names the end-to-end metric and workloads each layer metric is
// expected to move.
func layerTable() []map[string]string {
	out := make([]map[string]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = map[string]string{"name": m.name, "unit": m.unit, "moves": m.moves, "on": m.on, "flat": m.flat}
	}
	return out
}
