package main

// The benchmark's declared surface: the workloads and every metric a run
// emits, with unit, direction and (end to end) regression bound.
// BENCHMARK.json at the repository root carries the same declarations for
// the driver; bench_test.go asserts the two agree, so this table is the
// one place a name, unit or bound is written down in code.

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef declares one metric. Bound is the share of the base value by
// which the metric may get worse before a comparison calls it regressed;
// per-layer metrics have none (zero).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the measured-leg budget a bare run sizes itself for (the
// driver passes the same figure as --seconds).
const runSeconds = 6

// endToEnd are the user-visible metrics BENCHMARK.json declares end to
// end. Every one is defined, and non-zero, on every workload: the driver
// divides by the parent's median. The bounds are about three times what
// ten seeds spread by on this host (README, Steadiness): timings, read at
// reference host speed, by up to 8% in its quiet stretches and 17% in its
// slow ones; the counters by up to 3%.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p95_ms", "ms", lower, 0.25},
	{"first_mesh_p50_ms", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.06},
	{"alloc_kb_per_op", "KB", lower, 0.06},
	{"live_heap_mb", "MB", lower, 0.05},
	{"store_data_bytes_per_point", "B/pt", lower, 0.001},
	{"setup_s", "s", lower, 0.25},
}

// userCounters are the other three user-visible metrics. Each is
// legitimately zero on some workload (da_per_op on hot_patch,
// wire_bytes_per_op on cold_direct, failed_frac everywhere), which the
// driver does not take end to end, so BENCHMARK.json declares them per
// layer. The untraced pass still emits them on every workload and -compare
// judges them with these bounds.
var userCounters = []metricDef{
	{"da_per_op", "count", lower, 0.02},
	{"wire_bytes_per_op", "B", lower, 0.01},
	{"failed_frac", "ratio", lower, 0}, // absolute 0: any failure more is a regression
}

// absFloor is the absolute change a metric may always make, whatever its
// base: da_per_op's bound is max(2%, 0.05), so that a base near zero does
// not turn one stray page read into a regression.
var absFloor = map[string]float64{"da_per_op": 0.05}

// compared are the twelve metrics the untraced pass emits and -compare
// judges, on every workload.
var compared = append(append([]metricDef(nil), endToEnd...), userCounters...)

// tracePhases are the program-side phases (obs.Phase names) whose self
// time the traced pass reports as obs.phase.<p>_self_ms.
var tracePhases = []string{
	"rtree_descent", "dm_fetch", "id_index", "triangulate", "plan",
	"tile_materialize", "stitch", "seam_closure", "cache_lookup",
	"shard_hop", "stream_encode",
}

// perLayer is the per-layer ledger, one block per module.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, d := range userCounters {
		d.Bound = 0 // the driver takes no bound per layer
		m = append(m, d)
	}
	m = append(m, []metricDef{
		{"cluster.fanout_wall_ms", "ms", lower, 0},
		{"cluster.glue_ms", "ms", lower, 0},
		{"cluster.tiles_per_op", "count", lower, 0},
		{"cluster.attempts_per_tile", "ratio", lower, 0},
		{"cluster.redirects", "count", lower, 0},
		{"cluster.ring_order_ns", "ns", lower, 0},

		{"serve.patch_handler_ms", "ms", lower, 0},
		{"serve.tile_handler_ms", "ms", lower, 0},
		{"serve.frame_handler_ms", "ms", lower, 0},
		{"serve.stream_handler_ms", "ms", lower, 0},
		{"serve.tile_overhead_ms", "ms", lower, 0},
		{"serve.resp_bytes_per_op", "B", lower, 0},
		{"serve.error_responses", "count", lower, 0},

		{"net.http_overhead_ms", "ms", lower, 0},

		{"tilecache.query_hit_ms", "ms", lower, 0},
		{"tilecache.patch_hit_us", "us", lower, 0},
		{"tilecache.materialize_ms", "ms", lower, 0},
		{"tilecache.hit_ratio", "ratio", higher, 0},
		{"tilecache.evictions_per_op", "count", lower, 0},
		{"tilecache.dedup_ratio", "ratio", higher, 0},
		{"tilecache.materialize_da_per_miss", "count", lower, 0},
		{"tilecache.resident_mb", "MB", lower, 0},

		{"dm.vi_cold_ms", "ms", lower, 0},
		{"dm.vi_warm_ms", "ms", lower, 0},
		{"dm.vd_cold_ms", "ms", lower, 0},
		{"dm.fetch_by_id_us", "us", lower, 0},
		{"dm.blocking_ratio", "ratio", lower, 0},
		{"dm.candidates_per_vertex", "ratio", lower, 0},
		{"dm.materialize_tile_ms", "ms", lower, 0},
		{"dm.stitch_ms", "ms", lower, 0},
		{"dm.tilewire_encode_ms", "ms", lower, 0},
		{"dm.tilewire_decode_ms", "ms", lower, 0},
		{"dm.tilewire_bytes_per_vertex", "B", lower, 0},
		{"dm.coherent_frame_ms", "ms", lower, 0},
		{"dm.coherent_full_frac", "ratio", lower, 0},
		{"dm.coherent_retained_frac", "ratio", higher, 0},
		{"dm.coherent_da_per_frame", "count", lower, 0},

		{"rtree.search_ms", "ms", lower, 0},
		{"rtree.index_da_per_op", "count", lower, 0},

		{"pager.da_data_per_op", "count", lower, 0},
		{"pager.da_overflow_per_op", "count", lower, 0},
		{"pager.da_index_per_op", "count", lower, 0},
		{"pager.da_idindex_per_op", "count", lower, 0},
		{"pager.get_hit_ns", "ns", lower, 0},
		{"pager.get_miss_us", "us", lower, 0},
		{"pager.evictions_per_miss", "ratio", lower, 0},

		{"stream.encode_ms_per_batch", "ms", lower, 0},
		{"stream.decode_ms_per_batch", "ms", lower, 0},
		{"stream.bytes_to_first", "B", lower, 0},
		{"stream.bytes_to_exact", "B", lower, 0},
		{"stream.first_frac", "ratio", lower, 0},
		{"stream.bits_per_vertex", "bits/vertex", lower, 0},
		{"stream.batches_per_op", "count", lower, 0},

		{"costmodel.plan_us", "us", lower, 0},
		{"costmodel.estimate_ns", "ns", lower, 0},

		{"obs.trace_overhead_frac", "ratio", lower, 0},
		{"obs.unattributed_frac", "ratio", lower, 0},
	}...)
	for _, p := range tracePhases {
		m = append(m, metricDef{"obs.phase." + p + "_self_ms", "ms", lower, 0})
	}
	return append(m,
		metricDef{"build.heightfield_s", "s", lower, 0},
		metricDef{"build.simplify_s", "s", lower, 0},
		metricDef{"build.dm_derive_s", "s", lower, 0},
		metricDef{"build.store_s", "s", lower, 0},
		metricDef{"build.costmodel_s", "s", lower, 0},
		metricDef{"build.server_start_s", "s", lower, 0},
		metricDef{"build.warmup_s", "s", lower, 0},

		metricDef{"runtime.gc_cycles_per_kop", "1/kop", lower, 0},
		metricDef{"runtime.gc_cpu_frac", "ratio", lower, 0},
		metricDef{"runtime.goroutines_end", "count", lower, 0},

		metricDef{"client.op_p99_ms", "ms", lower, 0},
		metricDef{"client.op_max_ms", "ms", lower, 0},
		metricDef{"client.samples", "count", higher, 0},
		metricDef{"client.conc_op_p50_ms", "ms", lower, 0},
		metricDef{"client.round_spread", "ratio", lower, 0},
		metricDef{"client.host_speed", "ratio", higher, 0},
	)
}()
