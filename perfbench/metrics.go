package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (checked by TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
// Peak resident memory is not among them: on crashhunt it follows the
// garbage collector's pacing against 4 MiB crash images, and one seed's
// peak ranged from 97 to 118 MiB between runs, so it is reported by the
// traced run (runtime.peak_rss_mb) instead.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "op/s"},
	{"alloc_bytes_per_op", "B/op"},
}

// fsNames are the five file systems, in registry order.
var fsNames = []string{"ext3", "reiserfs", "jfs", "ntfs", "ixt3"}

// vtMetrics are the virtual-clock request metrics; clients reports the
// geometric mean of the per-file-system values, serve its own quantiles.
var vtMetrics = []metricDef{
	{"vt_ops_per_s", "op/vs"},
	{"vt_read_p50_ms", "vms"},
	{"vt_read_p99_ms", "vms"},
	{"vt_write_p50_ms", "vms"},
	{"vt_write_p99_ms", "vms"},
	{"vt_fsync_p50_ms", "vms"},
	{"vt_fsync_p99_ms", "vms"},
}

// perLayerMetrics are printed by every traced run, on every workload: a
// layer with no work on a workload reads 0 there.
var perLayerMetrics = func() []metricDef {
	m := append([]metricDef(nil), vtMetrics...)
	m = append(m,
		metricDef{"vt_max_rate_ops", "op/vs"},
		metricDef{"write_amp", "B/B"},
	)
	for _, fs := range fsNames {
		for _, v := range vtMetrics {
			m = append(m, metricDef{"fs." + fs + "." + v.name, v.unit})
		}
		m = append(m, metricDef{"fs." + fs + ".host_ops_per_s", "op/s"})
	}
	m = append(m,
		metricDef{"disk.reads", "count"},
		metricDef{"disk.writes", "count"},
		metricDef{"disk.barriers", "count"},
		metricDef{"disk.bytes_written", "B"},
		metricDef{"disk.busy_vs", "vs"},
		metricDef{"disk.svc_read_p50_us", "vus"},
		metricDef{"disk.svc_write_p50_us", "vus"},
		metricDef{"disk.host_self_s", "s"},
		metricDef{"cpu.disk.s", "s"},

		metricDef{"faultinject.fired", "count"},
		metricDef{"cpu.faultinject.s", "s"},

		metricDef{"hunt.seqs", "count"},
		metricDef{"hunt.points", "count"},
		metricDef{"hunt.states_per_seq", "count"},
	)
	for _, fs := range fsNames {
		m = append(m, metricDef{"hunt." + fs + ".host_s", "s"})
	}
	m = append(m,
		metricDef{"cpu.hunt.s", "s"},
		metricDef{"cpu.fstest.s", "s"},

		metricDef{"fingerprint.scenarios", "count"},
		metricDef{"fingerprint.fired", "count"},
	)
	for _, fs := range fsNames {
		m = append(m, metricDef{"fingerprint." + fs + ".host_s", "s"})
	}
	m = append(m,
		metricDef{"cpu.fingerprint.s", "s"},

		metricDef{"sched.enqueued", "count"},
		metricDef{"sched.absorbed", "count"},
		metricDef{"sched.coalesced", "count"},
		metricDef{"sched.batches", "count"},
		metricDef{"sched.drains", "count"},
		metricDef{"sched.read_flushes", "count"},
		metricDef{"sched.queue_wait_p99_us", "vus"},
		metricDef{"sched.host_self_s", "s"},
		metricDef{"sched.vt_s", "vs"},
		metricDef{"cpu.sched.s", "s"},

		metricDef{"bcache.hits", "count"},
		metricDef{"bcache.misses", "count"},
		metricDef{"bcache.evictions", "count"},
		metricDef{"bcache.hit_ratio", "ratio"},
		metricDef{"cpu.bcache.s", "s"},

		metricDef{"journal.commits", "count"},
		metricDef{"journal.ops_per_commit", "op"},
		metricDef{"journal.txn_blocks_mean", "blocks"},
		metricDef{"journal.fsync_wait_p99_us", "vus"},

		metricDef{"vfs.read.host_us_p50", "us"},
		metricDef{"vfs.write.host_us_p50", "us"},
		metricDef{"vfs.create.host_us_p50", "us"},
		metricDef{"vfs.unlink.host_us_p50", "us"},
		metricDef{"vfs.fsync.host_us_p50", "us"},
		metricDef{"vfs.stat.host_us_p50", "us"},
		metricDef{"vfs.host_self_s", "s"},
		metricDef{"vfs.vt_self_s", "vs"},
		metricDef{"cpu.fs-ext3.s", "s"},
		metricDef{"cpu.fs-reiser.s", "s"},
		metricDef{"cpu.fs-jfs.s", "s"},
		metricDef{"cpu.fs-ntfs.s", "s"},
		metricDef{"iron.overhead_x", "ratio"},

		metricDef{"serve.submit.host_us_p50", "us"},
		metricDef{"serve.dispatch.host_us_p50", "us"},
		metricDef{"serve.queue_wait_p99_ms", "vms"},
		metricDef{"serve.exec_p99_ms", "vms"},
		metricDef{"serve.gen_lag_p99_ms", "vms"},
		metricDef{"serve.backlog_max", "count"},
		metricDef{"cpu.serve.s", "s"},

		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.peak_rss_mb", "MiB"},
		metricDef{"cpu.runtime.s", "s"},
		metricDef{"trace.host_ops_ratio", "ratio"},
	)
	return m
}()
