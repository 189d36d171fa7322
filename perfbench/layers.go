package main

import (
	"slices"
	"strings"
)

// perLayer lists the metrics a --trace 1 run prints, as BENCHMARK.json
// declares them. Times come from the traced passes; counts from the
// mdserver registry diffed around the measured window (around the
// set-up for write counts on read-only workloads).
var perLayer = []metricDecl{
	{"service.self_us.query", "us"}, {"service.self_us.search", "us"}, {"service.self_us.ranked", "us"},
	{"service.self_us.fetch", "us"}, {"service.self_us.ingest", "us"},
	{"service.resp_kb.search", "KiB"}, {"service.resp_kb.ranked", "KiB"}, {"service.resp_kb.fetch", "KiB"},
	{"shard.router_self_us.query", "us"}, {"shard.router_self_us.search", "us"}, {"shard.router_self_us.ranked", "us"},
	{"shard.fanout_share", "ratio"}, {"shard.slowest_over_median", "ratio"},
	{"catalog.evaluate_us", "us"}, {"catalog.build_response_us", "us"}, {"catalog.search_ranked_us", "us"},
	{"catalog.fetch_us", "us"}, {"catalog.ingest_us", "us"},
	{"catalog.stage_us.probe", "us"}, {"catalog.stage_us.rollup", "us"}, {"catalog.stage_us.intersect", "us"},
	{"catalog.stage_us.rank", "us"}, {"catalog.stage_us.response", "us"},
	{"catalog.ingest_rest_us", "us"},
	{"catalog.epochs_per_kop", "count"}, {"catalog.checkpoints_per_kop", "count"},
	{"cache.hit_ratio.evaluate", "ratio"}, {"cache.hit_ratio.resolve", "ratio"},
	{"cache.hit_ratio.postings", "ratio"}, {"cache.hit_ratio.response", "ratio"},
	{"cache.lookups.evaluate", "count"}, {"cache.lookups.resolve", "count"},
	{"cache.lookups.postings", "count"}, {"cache.lookups.response", "count"},
	{"cache.stale_ratio", "ratio"}, {"cache.evictions_per_kop.response", "count"},
	{"textindex.builds_per_ranked", "ratio"}, {"textindex.build_ms", "ms"}, {"textindex.topk_us", "us"},
	{"relstore.row_reads_per_op.query", "count"}, {"relstore.row_reads_per_op.fetch", "count"},
	{"relstore.index_lookups_per_query", "count"}, {"catalog.rows_examined_per_result", "ratio"},
	{"bitset.containers_per_query", "count"}, {"relstore.row_writes_per_ingest", "count"},
	{"xmldoc.parse_us_per_doc", "us"}, {"core.shred_us_per_doc", "us"},
	{"wal.fsyncs_per_write", "ratio"}, {"wal.fsync_p50_us", "us"}, {"wal.commit_us", "us"},
	{"wal.bytes_per_doc_byte", "ratio"}, {"disk.bytes_per_doc_byte", "ratio"},
	{"proc.cpu_ms_per_op", "ms"}, {"loadgen.cpu_share", "ratio"},
	{"trace.http_p50_over_untraced", "ratio"},
}

// layerValue returns per-layer metric name: from the traced passes when
// they measured it, otherwise from the registry and process counters of
// the measured window.
func layerValue(name string, m *measurement, tr *traceResult) float64 {
	if v, ok := tr.values[name]; ok {
		return v
	}
	ops := float64(m.win.attempted)
	reg := m.winReg
	switch {
	case name == "shard.fanout_share":
		// Share of the window's structural and ranked reads, the ops the
		// router either routes to one shard or scatters to all.
		reads := len(m.win.lats[opQuery]) + len(m.win.lats[opSearch]) + len(m.win.lats[opRanked])
		return ratio(reg.sum("shard_fanout_queries_total"), float64(reads))
	case strings.HasPrefix(name, "catalog.stage_us."):
		return reg.hist("query_stage_nanos", `stage="`+strings.TrimPrefix(name, "catalog.stage_us.")+`"`).meanUS()
	case name == "catalog.epochs_per_kop":
		return 1000 * ratio(reg.sum("catalog_version_swaps_total"), ops)
	case name == "catalog.checkpoints_per_kop":
		return 1000 * ratio(reg.sum("catalog_checkpoints_total"), ops)
	case strings.HasPrefix(name, "cache.hit_ratio."):
		layer := `layer="` + strings.TrimPrefix(name, "cache.hit_ratio.") + `"`
		hits := reg.sum("cache_hits_total", layer)
		return ratio(hits, hits+reg.sum("cache_misses_total", layer))
	case strings.HasPrefix(name, "cache.lookups."):
		layer := `layer="` + strings.TrimPrefix(name, "cache.lookups.") + `"`
		return reg.sum("cache_hits_total", layer) + reg.sum("cache_misses_total", layer)
	case name == "cache.stale_ratio":
		return ratio(reg.sum("cache_stale_total"), reg.sum("cache_hits_total")+reg.sum("cache_misses_total"))
	case name == "cache.evictions_per_kop.response":
		return 1000 * ratio(reg.sum("cache_evictions_total", `layer="response"`), ops)
	case name == "textindex.builds_per_ranked":
		return ratio(reg.sum("textindex_builds_total"), float64(len(m.win.lats[opRanked])))
	case strings.HasPrefix(name, "wal."):
		return walValue(name, m)
	case name == "disk.bytes_per_doc_byte":
		return ratio(float64(m.disk), float64(m.setupXML+m.winXML))
	case name == "proc.cpu_ms_per_op":
		return ratio(ms(m.serverCPU), ops)
	case name == "trace.http_p50_over_untraced":
		return httpOverUntraced(m, tr)
	case name == "loadgen.cpu_share":
		return ratio(float64(m.genCPU), float64(m.genCPU+m.serverCPU))
	}
	return 0
}

// walValue reads the write-ahead log's counters over the window, or over
// the set-up on a read-only workload, whose window writes nothing.
func walValue(name string, m *measurement) float64 {
	reg, writes, xml := m.winReg, len(m.win.lats[opIngest])+len(m.win.lats[opPublish]), m.winXML
	if writes == 0 {
		reg, writes, xml = m.setupReg, m.setupWrites, m.setupXML
	}
	switch name {
	case "wal.fsyncs_per_write":
		return ratio(reg.sum("wal_fsyncs_total"), float64(writes))
	case "wal.fsync_p50_us":
		return reg.hist("wal_fsync_nanos").quantileBound(0.5) / 1e3
	case "wal.commit_us":
		return reg.hist("catalog_wal_commit_nanos").meanUS()
	default: // wal.bytes_per_doc_byte
		return ratio(reg.sum("wal_append_bytes_total"), float64(xml))
	}
}

// medianOf is the median of xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
