package main

// metric describes one reported figure. For a per-layer metric, moves
// names the end-to-end metric it should move and on names the workloads
// where it should (and should not) move — written down before anything
// is measured, so a claimed gain can be checked against the prediction.
type metric struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the untraced run's metrics, reported on every workload.
// "Op" is one simulated reference on the machine workloads and one
// explored state on mcheck-closure; a run is one replay, one campaign
// run, or one model-checker configuration closed. The three timings are
// scaled to a nominal host (probe.go).
var endToEnd = []metric{
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "runs_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower"},
	{name: "alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
}

const (
	replays  = "replay-kv, replay-writeheavy-obs"
	machines = "replay-kv, replay-writeheavy-obs, sweep-7proto"
)

// perLayer are the traced run's metrics, reported on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metric{
	{"sim.events_per_ref", "ev/ref", "lower", "ops_per_s", replays},
	{"sim.self_ns_per_event", "ns/ev", "lower", "ops_per_s", "replay-kv most (about 7 ev/ref); sweep-7proto less"},
	{"sim.handler_ns_per_event", "ns/ev", "lower", "ops_per_s", replays},
	{"network.msgs_per_ref", "msg/ref", "lower", "cmds_per_ref, sim_cycles_per_ref", machines},
	{"network.data_msgs_per_ref", "msg/ref", "lower", "cmds_per_ref, sim_cycles_per_ref", machines},
	{"network.broadcasts_per_ref", "bc/ref", "lower", "cmds_per_ref, sim_cycles_per_ref", machines},
	{"cache.miss_ratio", "ratio", "lower", "sim_cycles_per_ref", "replay-kv (many misses) vs sweep-7proto (mostly hits)"},
	{"cache.snoop_lookups_per_ref", "1/ref", "lower", "sim_cycles_per_ref", "replay-kv vs sweep-7proto"},
	{"cache.stolen_cycles_per_ref", "cyc/ref", "lower", "sim_cycles_per_ref", "replay-kv vs sweep-7proto"},
	{"proto.useless_per_ref", "cmd/ref", "lower", "cmds_per_ref", machines},
	{"proto.retries_per_ref", "1/ref", "lower", "cmds_per_ref, sim_cycles_per_ref", "two-bit write races (sweep-7proto, replay-kv); full-map never retries, so 0 on replay-writeheavy-obs"},
	{"proto.ctrl_utilization", "ratio", "lower", "sim_cycles_per_ref", machines},
	{"proto.max_queue", "count", "lower", "sim_cycles_per_ref", machines},
	{"system.ref_latency_p99_cycles", "cycles", "lower", "sim_cycles_per_ref", machines},
	{"system.build_ms", "ms/run", "lower", "setup_s, runs_per_s", machines},
	{"system.check_ms_per_run", "ms/run", "lower", "runs_per_s", "sweep-7proto most; a small share of replay-kv"},
	{"system.encode_us_per_run", "us/run", "lower", "runs_per_s", "sweep-7proto"},
	{"system.oracle_ns_per_ref", "ns/ref", "lower", "ops_per_s", "replay-kv (strict oracle)"},
	{"sim_cycles_per_ref", "cyc/ref", "lower", "simulated; moves only with the protocol", machines},
	{"cmds_per_ref", "cmd/ref", "lower", "simulated, Table 4-1 unit; moves only with the protocol", machines},
	{"memtrace.decode_ns_per_ref", "ns/ref", "lower", "ops_per_s", "replay-kv only"},
	{"tracegen.synth_ns_per_ref", "ns/ref", "lower", "setup_s", replays},
	{"obs.overhead_frac", "frac", "lower", "ops_per_s", "replay-writeheavy-obs only; replay-kv must not move"},
	{"sweep.worker_util", "frac", "higher", "runs_per_s", "sweep-7proto"},
	{"mcheck.states", "states", "lower", "ops_per_s (states/s)", "mcheck-closure"},
	{"mcheck.edges_per_state", "edges/state", "lower", "ops_per_s (states/s)", "mcheck-closure"},
	{"mcheck.ms_per_config", "ms/config", "lower", "runs_per_s", "mcheck-closure"},
	{"runtime.gc_cpu_frac", "frac", "lower", "ops_per_s, runs_per_s", "wherever allocs_per_op is high"},
	{"trace_overhead_frac", "frac", "lower", "none: the traced units' own cost against the untraced units", "all"},
}

func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metric{l + ".cpu_share", "frac", "lower", "ops_per_s, runs_per_s", "all; splits handler time no public call boundary separates"})
	}
}
