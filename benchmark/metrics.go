package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats this table (a test
// holds the two equal); -compare takes its directions and bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base by which it may worsen; end-to-end only
}

// endToEnd is what a user of the system sees, on every workload. An
// operation is one timed repetition (asm_*, cluster_4node) or one job
// (serve_jobs).
var endToEnd = []metricDef{
	// Input generation (median of several rounds) + the reference assembly
	// the outputs are compared with. The discarded warm-up is not in it: a
	// cold first repetition moved 31% between two sets of runs here, more
	// than any bound the driver allows.
	{"setup_s", "s", "lower", 0.25},
	// Median time of one operation, input bytes to FASTA bytes. On
	// serve_jobs: of one interactive-lane job, POST to fetched FASTA.
	{"wall_s", "s", "lower", 0.25},
	// Operations completed per second of measuring.
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	// Result.TotalModeled under the K40 (cluster: K20X) default-disk
	// profile; repeats exactly for a seed.
	{"modeled_s", "s", "lower", 0.005},
	// (DiskReadBytes+DiskWriteBytes) / input bases, from Result.Counters.
	{"disk_bytes_per_base", "bytes/base", "lower", 0.005},
	// Max PhaseStats.GraphHostPeak.
	{"graph_host_peak_mib", "MiB", "lower", 0.005},
	// quality.Evaluate's measures against the simulated genome.
	{"genome_coverage_frac", "fraction", "higher", 0.005},
	{"n50_bp", "bp", "higher", 0.25},
}

// perLayer is <module>.<metric>, from the traced run. A layer a workload
// does not run reads 0.
var perLayer = []metricDef{
	{Name: "core.load_s", Unit: "s", Better: "lower"},
	{Name: "core.map_s", Unit: "s", Better: "lower"},
	{Name: "core.sort_s", Unit: "s", Better: "lower"},
	{Name: "core.reduce_s", Unit: "s", Better: "lower"},
	{Name: "core.compress_s", Unit: "s", Better: "lower"},
	{Name: "core.run_other_s", Unit: "s", Better: "lower"},
	{Name: "core.map_other_s", Unit: "s", Better: "lower"},
	{Name: "core.sort_other_s", Unit: "s", Better: "lower"},
	{Name: "core.reduce_other_s", Unit: "s", Better: "lower"},
	{Name: "core.compress_other_s", Unit: "s", Better: "lower"},
	{Name: "core.host_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "fastq.parse_s", Unit: "s", Better: "lower"},
	{Name: "fastq.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fingerprint.scan_s", Unit: "s", Better: "lower"},
	{Name: "fingerprint.ns_per_base", Unit: "ns/base", Better: "lower"},
	{Name: "kvio.partition_write_s", Unit: "s", Better: "lower"},
	{Name: "kvio.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "kvio.read_s", Unit: "s", Better: "lower"},
	{Name: "kvio.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "kvio.close_s", Unit: "s", Better: "lower"},
	{Name: "kvio.files_written", Unit: "count", Better: "lower"},
	{Name: "extsort.sortfile_s", Unit: "s", Better: "lower"},
	{Name: "extsort.pairs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "extsort.runs", Unit: "count", Better: "lower"},
	{Name: "extsort.merge_rounds", Unit: "count", Better: "lower"},
	{Name: "extsort.disk_passes", Unit: "count", Better: "lower"},
	{Name: "extsort.sortstream_s", Unit: "s", Better: "lower"},
	{Name: "gpu.sortpairs_ns_per_pair", Unit: "ns/pair", Better: "lower"},
	{Name: "gpu.mergepairs_ns_per_pair", Unit: "ns/pair", Better: "lower"},
	{Name: "gpu.device_ops", Unit: "count", Better: "lower"},
	{Name: "gpu.device_mem_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gpu.pcie_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gpu.device_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "overlap.reduce_s", Unit: "s", Better: "lower"},
	{Name: "overlap.pairs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "overlap.candidates", Unit: "count", Better: "lower"},
	{Name: "graph.greedy_build_s", Unit: "s", Better: "lower"},
	{Name: "graph.traverse_s", Unit: "s", Better: "lower"},
	{Name: "graph.accepted_edges", Unit: "count", Better: "higher"},
	{Name: "spmat.build_s", Unit: "s", Better: "lower"},
	{Name: "spmat.reduce_s", Unit: "s", Better: "lower"},
	{Name: "spmat.reduced_edges", Unit: "count", Better: "higher"},
	{Name: "spmat.host_mib", Unit: "MiB", Better: "lower"},
	{Name: "succinct.build_s", Unit: "s", Better: "lower"},
	{Name: "succinct.reduce_s", Unit: "s", Better: "lower"},
	{Name: "succinct.reduced_edges", Unit: "count", Better: "higher"},
	{Name: "succinct.host_mib", Unit: "MiB", Better: "lower"},
	{Name: "succinct.bits_per_edge", Unit: "bits", Better: "lower"},
	{Name: "sgraph.unitigs_s", Unit: "s", Better: "lower"},
	{Name: "contig.generate_s", Unit: "s", Better: "lower"},
	{Name: "contig.fasta_write_s", Unit: "s", Better: "lower"},
	{Name: "contig.count", Unit: "count", Better: "lower"},
	{Name: "costmodel.disk_read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "costmodel.disk_write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "costmodel.net_bytes", Unit: "bytes", Better: "lower"},
	{Name: "costmodel.modeled_disk_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.modeled_device_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.modeled_pcie_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.overlap_saved_s", Unit: "s", Better: "higher"},
	{Name: "costmodel.map_modeled_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.sort_modeled_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.reduce_modeled_s", Unit: "s", Better: "lower"},
	{Name: "costmodel.compress_modeled_s", Unit: "s", Better: "lower"},
	{Name: "cluster.map_s", Unit: "s", Better: "lower"},
	{Name: "cluster.shuffle_s", Unit: "s", Better: "lower"},
	{Name: "cluster.sort_s", Unit: "s", Better: "lower"},
	{Name: "cluster.reduce_s", Unit: "s", Better: "lower"},
	{Name: "cluster.compress_s", Unit: "s", Better: "lower"},
	{Name: "cluster.net_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.interactive_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.interactive_latency_p90_s", Unit: "s", Better: "lower"},
	{Name: "serve.batch_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.batch_latency_max_s", Unit: "s", Better: "lower"},
	{Name: "serve.submit_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.run_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.result_fetch_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "obs.on_wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the p-th percentile (nearest rank) of xs. Above the
// median it refuses a percentile with fewer than ten samples beyond it: a
// tail read off two or three samples is one slow job, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1 // nearest rank
	if beyond := len(s) - 1 - rank; p > 50 && beyond < 10 {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want 10", p, len(s), beyond)
	}
	return s[rank], nil
}
