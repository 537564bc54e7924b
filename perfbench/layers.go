package main

// perLayer lists every per-layer metric with its unit. A traced run of any
// workload reports all of them; a layer the workload does not exercise
// reads 0 (for example wal.* on a volatile store).
var perLayer = []struct{ name, unit string }{
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"core.submit_us_p50", "us"},
	{"core.legs_per_query", "count"},
	{"pe.queue_us_p50", "us"},
	{"pe.queue_us_p99", "us"},
	{"pe.exec_us_p50", "us"},
	{"pe.exec_us_p99", "us"},
	{"pe.busy_frac", "frac"},
	{"pe.commit_us_p50", "us"},
	{"pe.commit_us_p99", "us"},
	{"pe.triggered_per_border", "count"},
	{"pe.batch_fill_ms", "ms"},
	{"pe.abort_frac", "frac"},
	{"ee.window_slides_per_s", "1/s"},
	{"ee.stmts_per_txn", "count"},
	{"wal.records_per_call", "count"},
	{"wal.bytes_per_call", "B"},
	{"wal.checkpoint_ms_p50", "ms"},
	{"wal.checkpoint_ms_max", "ms"},
	{"wal.recovery_s", "s"},
	{"storage.versions_retained", "count"},
	{"storage.gc_reclaimed_per_txn", "count"},
	{"storage.cold_faults_per_query", "count"},
	{"storage.resident_mb", "MiB"},
	{"client.rtt_us_p50.query", "us"},
	{"client.rtt_us_p99.query", "us"},
	{"client.rtt_us_p50.call", "us"},
	{"client.rtt_us_p99.call", "us"},
	{"server.overhead_us_p50", "us"},
	{"wire.req_bytes", "B"},
	{"wire.resp_bytes", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"process.cpu_us_per_op", "us"},
	{"trace.overhead_frac", "frac"},
}

// zeroLayers starts a traced report with every per-layer metric at 0, so a
// workload only sets the layers it exercises.
func zeroLayers(out map[string]metric) {
	for _, l := range perLayer {
		out[l.name] = metric{0, l.unit}
	}
}

// overheadFrac compares the p50 of traced and untraced samples of the same
// phase: traced/untraced - 1.
func overheadFrac(traced, untraced []int64) float64 {
	u := newQuantiles(untraced).at(0.5)
	return ratio(float64(newQuantiles(traced).at(0.5)), float64(u)) - 1
}
