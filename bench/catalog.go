package main

// metricDef is one catalogue entry; BENCHMARK.json repeats the
// catalogue, and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd are the gated metrics: what a user of the service sees.
// Every workload reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rtt_p50_us", "us", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.05},
	{"accuracy", "ratio", "higher", 0.03},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.05},
	{"alloc_kb_per_req", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.20},
}

// perLayer are the ungated metrics of single layers (the repo's
// packages), measured from the harness only. A layer a workload does
// not deploy reports 0.
var perLayer = []metricDef{
	{Name: "wire.enc_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dec_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.enc_sub_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dec_sub_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.enc_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dec_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.canonical_key_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "netsvc.conn_writes_per_req", Unit: "count", Better: "lower"},
	{Name: "netsvc.conn_reads_per_req", Unit: "count", Better: "lower"},
	{Name: "netsvc.front_self_us", Unit: "us", Better: "lower"},
	{Name: "netsvc.gather_self_us", Unit: "us", Better: "lower"},
	{Name: "netsvc.handler_us", Unit: "us", Better: "lower"},
	{Name: "netsvc.compose_ns", Unit: "ns", Better: "lower"},
	{Name: "netsvc.agg_call_us", Unit: "us", Better: "lower"},
	{Name: "netsvc.hedges_per_req", Unit: "count", Better: "lower"},
	{Name: "netsvc.retries_per_req", Unit: "count", Better: "lower"},
	{Name: "netsvc.hedge_delay_ms", Unit: "ms", Better: "lower"},
	{Name: "netsvc.abandoned_frac", Unit: "ratio", Better: "lower"},
	{Name: "netsvc.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "netsvc.degraded_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.sets_per_subop", Unit: "count", Better: "higher"},
	{Name: "frontend.call_self_ns", Unit: "ns", Better: "lower"},
	{Name: "frontend.rejected_frac", Unit: "ratio", Better: "lower"},
	{Name: "frontend.level_mean", Unit: "level", Better: "higher"},
	{Name: "rescache.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "rescache.stale_frac", Unit: "ratio", Better: "lower"},
	{Name: "rescache.coalesced_frac", Unit: "ratio", Better: "higher"},
	{Name: "rescache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.store_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.rewarm_per_swap", Unit: "count", Better: "higher"},
	{Name: "textindex.synopsis_us", Unit: "us", Better: "lower"},
	{Name: "textindex.exact_us", Unit: "us", Better: "lower"},
	{Name: "cf.synopsis_us", Unit: "us", Better: "lower"},
	{Name: "cf.exact_us", Unit: "us", Better: "lower"},
	{Name: "agg.level_us", Unit: "us", Better: "lower"},
	{Name: "agg.exact_us", Unit: "us", Better: "lower"},
	{Name: "ingest.append_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ingest.publish_us", Unit: "us", Better: "lower"},
	{Name: "ingest.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.swaps", Unit: "count", Better: "higher"},
	{Name: "obs.trace_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "obs.slo_record_ns", Unit: "ns", Better: "lower"},
	{Name: "cost.record_ns", Unit: "ns", Better: "lower"},
	{Name: "audit.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "audit.audited_frac", Unit: "ratio", Better: "higher"},
	{Name: "planes.overhead_us", Unit: "us", Better: "lower"},
	{Name: "planes.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "synopsis.build_s", Unit: "s", Better: "lower"},
	{Name: "agg.build_s", Unit: "s", Better: "lower"},
	{Name: "netsvc.ready_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kreq", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_req", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p10_us", Unit: "us", Better: "lower"},
	{Name: "client.tail_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.busy_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "host.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "host.spin_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.reconcile_frac", Unit: "ratio", Better: "lower"},
}
