package main

import (
	"strings"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
)

// registryLayers reads the per-layer counters a round left in the stat
// registry: disk, scheduler, buffer cache, journals and the fault layer,
// each summed over every stack the round built. mutations is the number
// of mutating file-system calls the round issued (for ops per commit).
func registryLayers(reg *stat.Registry, mutations int64) map[string]float64 {
	snap := reg.Snapshot()
	counter := func(prefix string) float64 {
		var n int64
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Key, prefix) {
				n += c.Value
			}
		}
		return float64(n)
	}
	hist := func(prefix string) *stat.Histogram {
		h := stat.NewHistogram()
		for _, hs := range snap.Histograms {
			if strings.HasPrefix(hs.Key, prefix) {
				name, labels := splitKey(hs.Key)
				h.Merge(reg.Histogram(name, labels...))
			}
		}
		return h
	}
	rd, wr := hist("disk_svc_ns{op=read}"), hist("disk_svc_ns{op=write}")
	m := map[string]float64{
		"disk.reads":            float64(rd.Count()),
		"disk.writes":           float64(wr.Count()),
		"disk.barriers":         counter("disk_ops_total{op=barrier}"),
		"disk.bytes_written":    float64(wr.Count()) * float64(disk.DefaultGeometry().BlockSize),
		"disk.busy_vs":          float64(rd.Sum()+wr.Sum()) / float64(disk.Second),
		"disk.svc_read_p50_us":  float64(rd.Quantile(0.5)) / float64(disk.Microsecond),
		"disk.svc_write_p50_us": float64(wr.Quantile(0.5)) / float64(disk.Microsecond),

		"faultinject.fired": counter("fault_fired_total"),

		"sched.enqueued":          counter("sched_ops_total{kind=enqueue}"),
		"sched.absorbed":          counter("sched_ops_total{kind=absorb}"),
		"sched.coalesced":         counter("sched_ops_total{kind=coalesce}"),
		"sched.batches":           counter("sched_ops_total{kind=batch}"),
		"sched.drains":            counter("sched_ops_total{kind=drain}"),
		"sched.read_flushes":      counter("sched_ops_total{kind=read-flush}"),
		"sched.queue_wait_p99_us": float64(hist("sched_queue_wait_ns").Quantile(0.99)) / float64(disk.Microsecond),

		"bcache.hits":      counter("bcache_ops_total{op=hit,"),
		"bcache.misses":    counter("bcache_ops_total{op=miss,"),
		"bcache.evictions": counter("bcache_ops_total{op=evict,"),

		"journal.commits":           counter("fs_commits_total"),
		"journal.fsync_wait_p99_us": float64(hist("fs_fsync_wait_ns").Quantile(0.99)) / float64(disk.Microsecond),
	}
	if txn := hist("fs_txn_blocks"); txn.Count() > 0 {
		m["journal.txn_blocks_mean"] = float64(txn.Sum()) / float64(txn.Count())
	}
	if lookups := m["bcache.hits"] + m["bcache.misses"]; lookups > 0 {
		m["bcache.hit_ratio"] = m["bcache.hits"] / lookups
	}
	if m["journal.commits"] > 0 {
		m["journal.ops_per_commit"] = float64(mutations) / m["journal.commits"]
	}
	return m
}
