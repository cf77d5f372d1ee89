package main

// metric is one reported number. The catalogue below is the code's half of
// the contract BENCHMARK.json states; bench_test.go checks the two agree.
type metric struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the simulator sees, measured with tracing
// off. Every workload reports every one of them; README.md says what "job"
// and "op" mean on each workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"sim_pkts_per_s", "1/s"},
	{"replicates_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"warm_job_ms_p50", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// warmShareLayers are the layers whose CPU share the traced pass reports a
// second time, for the warm phase alone: the ones left once the simulator
// is idle. (Every layer in layers gets a share of the cold phase.)
var warmShareLayers = []string{"store", "json", "server", "campaign", "runtime", "other"}

// microMetrics come from the microdrivers in micro.go, in the order they run.
var microMetrics = []metric{
	{"sim.schedule_dispatch_ns", "ns"},
	{"sim.schedule_dispatch_deep_ns", "ns"},
	{"sim.timer_reset_ns", "ns"},
	{"phy.transmit_ns", "ns"},
	{"phy.events_per_frame", "count"},
	{"phy.neighbor_epoch_dense_us", "us"},
	{"phy.neighbor_epoch_sparse_us", "us"},
	{"phy.deliver_impaired_ns", "ns"},
	{"mac.exchange_us", "us"},
	{"mac.events_per_exchange", "count"},
	{"aodv.discovery_us", "us"},
	{"aodv.discovery_allocs", "count"},
	{"aodv.table_update_ns", "ns"},
	{"tcp.ack_ns", "ns"},
	{"tcp.ack_allocs", "count"},
	{"udp.send_ns", "ns"},
	{"pkt.get_release_ns", "ns"},
	{"mobility.position_ns", "ns"},
	{"core.fresh_run_ms", "ms"},
	{"core.reset_run_ms", "ms"},
	{"core.cachekey_us", "us"},
	{"core.cachekey_bytes", "count"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.miss_us", "us"},
	{"campaign.cache_hit_us", "us"},
	{"campaign.store_hit_us", "us"},
}

// runMetrics come from the traced repetition of the workload itself: spans
// recorded around the calls into the program, and the simulated statistics
// its results carry (simulated time, exact per seed).
var runMetrics = []metric{
	{"server.submit_ms", "ms"},
	{"server.first_event_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.results_ms", "ms"},
	{"server.results_bytes", "count"},
	{"server.warm_submit_ms", "ms"},
	{"server.warm_first_event_ms", "ms"},
	{"server.warm_stream_ms", "ms"},
	{"server.warm_results_ms", "ms"},
	{"sim.simulated_s", "s"},
	{"sim.sim_s_per_wall_s", "1/s"},
	{"tcp.goodput_kbps", "kbit/s"},
	{"tcp.rtx_per_pkt", "count"},
	{"tcp.avg_window", "count"},
	{"mac.drop_prob", "share"},
	{"aodv.route_failures_false", "count"},
	{"aodv.route_failures_true", "count"},
	{"phy.impaired_frames", "count"},
	{"fault.frames_cut", "count"},
	{"fault.recover_after_heal_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// simulatedStats are the runMetrics that depend on the seed alone, so two
// runs of any two commits that leave the model unchanged must agree on them
// exactly.
var simulatedStats = []string{
	"sim.simulated_s", "tcp.goodput_kbps", "tcp.rtx_per_pkt", "tcp.avg_window",
	"mac.drop_prob", "aodv.route_failures_false", "aodv.route_failures_true",
	"phy.impaired_frames", "fault.frames_cut", "fault.recover_after_heal_ms",
}

// perLayer is the full traced-pass catalogue in print order.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_share", "share"})
	}
	for _, l := range warmShareLayers {
		out = append(out, metric{l + ".warm_cpu_share", "share"})
	}
	out = append(out, microMetrics...)
	return append(out, runMetrics...)
}
