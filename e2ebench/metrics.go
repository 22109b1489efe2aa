package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root lists the same names and units (a test keeps the two in step).

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
	// moves names the end-to-end metric and workload a per-layer metric
	// is expected to move.
	moves string
}

// endToEnd are reported by every untraced run, on every workload. The
// report lines add the tail (p99 with its sample count): on a shared
// 2-vCPU host a run's p99 moved with host load by more than any bound a
// benchmark may set, so it is shown but not gated. What
// "op" means depends on the workload: a verified whole-file Read on
// read-hot, a Locations lookup while periods run on period-scale, and
// the wall time to simulate one trace hour (its event loop plus the
// period that closes it) on sim-paper.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "period_p50_ms", unit: "ms"},
	{name: "realized_sol_ratio", unit: "ratio"},
	{name: "rss_peak_MB", unit: "MB"},
}

// perLayer are reported by every traced run, on every workload; a layer
// the workload leaves idle reads 0.
var perLayer = []metricDef{
	// internal/dfs/client
	{"client.read.self_ms", "ms", "op_p50_ms on read-hot"},
	{"client.create.self_ms", "ms", "setup_s on read-hot and period-scale"},
	{"client.rpcs_per_op", "count", "failed ops, read p99 on read-hot"},
	{"client.failover_per_1k_reads", "count", "failed ops, read p99 on read-hot"},
	// internal/dfs/proto (client- and datanode-side calls)
	{"rpc.get_locations.count", "count", "op_p50_ms on read-hot and period-scale"},
	{"rpc.get_locations.p50_ms", "ms", "op_p50_ms on read-hot and period-scale"},
	{"rpc.get_locations.p99_ms", "ms", "lookup p99 on period-scale"},
	{"rpc.create.count", "count", "setup_s on read-hot and period-scale"},
	{"rpc.create.p50_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.create.p99_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.add_block.count", "count", "setup_s on read-hot and period-scale"},
	{"rpc.add_block.p50_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.add_block.p99_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.complete.count", "count", "setup_s on read-hot and period-scale"},
	{"rpc.complete.p50_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.complete.p99_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.heartbeat.count", "count", "setup_s on period-scale"},
	{"rpc.heartbeat.p50_ms", "ms", "setup_s on period-scale"},
	{"rpc.heartbeat.p99_ms", "ms", "setup_s on period-scale"},
	{"rpc.heartbeat_delta.count", "count", "setup_s on read-hot and period-scale"},
	{"rpc.heartbeat_delta.p50_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.heartbeat_delta.p99_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.block_received.count", "count", "setup_s on read-hot and period-scale"},
	{"rpc.block_received.p50_ms", "ms", "setup_s on read-hot and period-scale"},
	{"rpc.block_received.p99_ms", "ms", "setup_s on read-hot and period-scale"},
	{"stream.wire_bytes_per_user_byte", "ratio", "op_p50_ms on read-hot"},
	{"stream.frames_per_block", "count", "op_p50_ms on read-hot"},
	// internal/dfs/datanode
	{"stream.write.ms", "ms", "setup_s on read-hot and period-scale"},
	{"pipeline.hop.self_ms", "ms", "setup_s on read-hot and period-scale"},
	{"stream.read.ms", "ms", "op_p50_ms on read-hot"},
	{"store.put.us", "us", "setup_s on read-hot and period-scale"},
	{"store.get.us", "us", "op_p50_ms on read-hot"},
	{"store.delete.us", "us", "convergence on read-hot"},
	{"store.bytes_written_per_user_byte", "ratio", "setup_s on read-hot and period-scale"},
	{"replicate.transfer.ms", "ms", "period_p50_ms and convergence on read-hot"},
	// internal/dfs/namenode
	{"period.ms", "ms", "period_p50_ms on period-scale"},
	{"lookup.in_period.p99_ms", "ms", "lookup p99 on period-scale"},
	{"lookup.out_period.p99_ms", "ms", "lookup p99 on period-scale"},
	{"move.issue_to_confirm_ms", "ms", "convergence on read-hot"},
	// internal/popularity
	{"monitor.record.ns", "ns", "period_p50_ms on period-scale, op_p50_ms on sim-paper"},
	{"predict.ms", "ms", "period_p50_ms on period-scale, op_p50_ms on sim-paper"},
	// internal/core
	{"alg3.solve_ms", "ms", "period_p50_ms on sim-paper and period-scale"},
	// The live namenode replays the observer hooks after the whole
	// period, so only sim-paper splits a period into its phases.
	{"replicate_phase.ms", "ms", "period_p50_ms on sim-paper (0 on live workloads)"},
	{"search.ms", "ms", "period_p50_ms on sim-paper (0 on live workloads)"},
	{"search.ops", "count", "blocks moved per period, realized_sol_ratio"},
	{"replications", "count", "blocks moved per period, realized_sol_ratio"},
	{"evictions", "count", "blocks moved per period, realized_sol_ratio"},
	{"replica_churn_frac", "ratio", "blocks moved per period, realized_sol_ratio"},
	// internal/sim with internal/sched
	{"sim.event_loop_s", "s", "op_p50_ms on sim-paper"},
	// the trace itself
	{"trace.overhead_frac", "ratio", "traced vs untraced primary op p50 (sim-paper: replay time)"},
	{"rollup.read.path_gap_frac", "ratio", "share of read time the blocking path leaves unexplained"},
	{"rollup.create.path_gap_frac", "ratio", "share of create time the blocking path leaves unexplained"},
}
