// Command lasagna assembles a FASTQ/FASTA short-read dataset into contigs
// using the LaSAGNA pipeline (map -> sort -> reduce -> compress) on a
// simulated GPU, or on a simulated multi-node GPU cluster with -nodes.
//
// Usage:
//
//	lasagna -in reads.fastq -workspace ./work -lmin 63
//	lasagna -in reads.fastq -workspace ./work -lmin 63 -nodes 8 -gpu K20X
//	lasagna -in a.fastq.gz,b.fastq.gz -workspace ./work -dedupe -graph-backend spmat -reference genome.fasta
//	lasagna -in reads.fastq -workspace ./work -resume   # re-enter an interrupted run
//
// Observability (composes with every mode above, including -resume):
//
//	lasagna -in reads.fastq -workspace ./work -trace trace.json   # Perfetto-loadable span trace
//	lasagna -in reads.fastq -workspace ./work -debug-addr localhost:6060 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/costmodel"
	"repro/internal/fastq"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
)

func main() {
	var (
		in         = flag.String("in", "", "comma-separated input FASTQ/FASTA files, .gz accepted (required)")
		workspace  = flag.String("workspace", "", "scratch/output directory (required)")
		lmin       = flag.Int("lmin", 63, "minimum overlap length")
		gpuName    = flag.String("gpu", "K40", "modeled GPU (K20X, K40, P40, P100, V100)")
		hostBlock  = flag.Int("host-block", 1<<20, "host block size m_h in pairs")
		devBlock   = flag.Int("device-block", 1<<16, "device block size m_d in pairs")
		nodes      = flag.Int("nodes", 1, "simulated cluster nodes (1 = single-node pipeline)")
		singletons = flag.Bool("singletons", false, "emit single-read contigs for unassembled reads")
		verify     = flag.Bool("verify", false, "verify candidate overlaps against sequences")
		keepFiles  = flag.Bool("keep-intermediate", false, "retain partition/sort files")
		dedupe     = flag.Bool("dedupe", false, "remove duplicate reads before assembly")
		packed     = flag.Bool("packed", false, "store bulk reads 2-bit packed in host memory")
		backend    = flag.String("graph-backend", "", "reduce/compress engine: greedy (default; the paper's bit-vector graph), spmat (full string graph as a CSR sparse matrix with masked-SpGEMM transitive reduction), or succinct (compressed rank/select adjacency built in one pass from sorted edge runs)")
		workers    = flag.Int("workers", 0, "concurrent partition workers, per node with -nodes (0 = GOMAXPROCS, 1 = serial; output is identical)")
		reference  = flag.String("reference", "", "optional reference FASTA for a quality report")
		resume     = flag.Bool("resume", false, "resume an interrupted run from the workspace's manifest")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
		debugAddr  = flag.String("debug-addr", "", "serve Prometheus metrics and pprof debug endpoints on this address (e.g. localhost:6060)")
		verbose    = flag.Bool("v", false, "verbose logging: debug-level stage and resume events")
		quiet      = flag.Bool("quiet", false, "log errors only")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("lasagna"))
		return
	}
	if *in == "" || *workspace == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "lasagna: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	spec, ok := findGPU(*gpuName)
	if !ok {
		fmt.Fprintf(os.Stderr, "lasagna: unknown GPU %q\n", *gpuName)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workspace, 0o755); err != nil {
		fatal(err)
	}

	// Observability: the logger always exists (level gates the volume);
	// the tracer only when a trace file was requested; the metrics
	// registry whenever anything will read it (trace runs snapshot it into
	// the manifest, the debug endpoint serves it live).
	level := slog.LevelWarn
	switch {
	case *quiet:
		level = slog.LevelError
	case *verbose:
		level = slog.LevelDebug
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	var registry *obs.Registry
	if *traceOut != "" || *debugAddr != "" {
		registry = obs.NewRegistry()
	}
	observer := obs.New(obs.NewLogger(os.Stderr, level, *logFormat == "json"), tracer, registry)
	if *debugAddr != "" {
		dbg, err := obs.NewDebugServer(*debugAddr, registry)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "lasagna: debug endpoint on http://%s (/metrics, /debug/pprof/)\n", dbg.Addr())
	}

	inputs := strings.Split(*in, ",")
	reads, err := fastq.ReadFiles(inputs...)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the pipeline between device batches; the
	// stages committed so far stay resumable with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := lasagna.DefaultConfig(*workspace)
	cfg.MinOverlap = *lmin
	cfg.GPU = spec
	cfg.HostBlockPairs = *hostBlock
	cfg.DeviceBlockPairs = *devBlock
	cfg.IncludeSingletons = *singletons
	cfg.VerifyOverlaps = *verify
	cfg.KeepIntermediate = *keepFiles
	cfg.DedupeReads = *dedupe
	cfg.PackedReads = *packed
	cfg.GraphBackend = *backend
	cfg.Resume = *resume
	if *workers != 0 {
		cfg.Workers = *workers
	}
	cfg.Obs = observer
	res, err := assemble(ctx, cfg, *nodes, reads)
	writeTrace(tracer, *traceOut)
	if err != nil {
		fatal(err)
	}
	reportResumed(res.CachedStages)
	if *nodes > 1 {
		fmt.Printf("distributed assembly on %d simulated %s nodes\n", *nodes, spec.Name)
	} else {
		fmt.Printf("single-node assembly on simulated %s\n", spec.Name)
	}
	for _, ps := range res.Phases {
		fmt.Println("  " + ps.String())
	}
	fmt.Printf("reads: %d, partitions: %d, pairs: %d\n",
		res.NumReads, res.Partitions, res.PairsGenerated)
	fmt.Printf("edges: %d candidates, %d accepted", res.CandidateEdges, res.AcceptedEdges)
	if *verify {
		fmt.Printf(", %d false positives", res.FalsePositives)
	}
	fmt.Println()
	fmt.Printf("assembly: %s\n", res.ContigStats)
	fmt.Printf("contigs written to %s\n", res.ContigPath)
	fmt.Printf("total: wall %s, modeled %s\n",
		stats.FormatDuration(res.TotalWall), stats.FormatDuration(res.TotalModeled))
	if res.OverlapSaved > 0 {
		fmt.Printf("stream overlap hid %s of modeled time (%.0f%% of streamed work)\n",
			stats.FormatDuration(res.OverlapSaved), res.OverlapRatio*100)
	}
	reportModeled(res.Modeled)
	reportQuality(*reference, res.Contigs)
}

// assemble runs cfg on one node, or on nodes simulated cluster nodes.
func assemble(ctx context.Context, cfg lasagna.Config, nodes int,
	reads *lasagna.ReadSet) (*lasagna.Result, error) {
	if nodes <= 1 {
		return lasagna.AssembleContext(ctx, cfg, reads)
	}
	res, err := lasagna.AssembleDistributedContext(ctx,
		lasagna.ClusterConfig{Config: cfg, Nodes: nodes}, reads)
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// writeTrace flushes the collected span trace (nil-safe, so observability
// off costs nothing). It runs even after a failed or interrupted run: a
// partial trace of the stages that did execute is exactly what a crash
// investigation wants.
func writeTrace(tracer *obs.Tracer, path string) {
	if tracer == nil || path == "" {
		return
	}
	if err := tracer.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "lasagna: writing trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "lasagna: trace written to %s\n", path)
}

// reportModeled prints the per-tier modeled-time attribution from the
// run's final counter snapshot — the same costmodel.Breakdown arithmetic
// the trace spans carry.
func reportModeled(b costmodel.Breakdown) {
	sec := func(s float64) string {
		return stats.FormatDuration(time.Duration(s * float64(time.Second)))
	}
	fmt.Printf("modeled tiers: disk read %s, disk write %s, net %s, host mem %s, device mem %s, device ops %s, pcie %s\n",
		sec(b.DiskReadSec), sec(b.DiskWriteSec), sec(b.NetSec), sec(b.HostMemSec),
		sec(b.DeviceMemSec), sec(b.DeviceOpsSec), sec(b.PCIeSec))
}

// reportResumed notes which stages a -resume run served from the manifest.
func reportResumed(cached []string) {
	if len(cached) > 0 {
		fmt.Printf("resumed: %s served from the run manifest\n", strings.Join(cached, ", "))
	}
}

// reportQuality prints a reference-based assembly evaluation when a
// reference FASTA was supplied.
func reportQuality(refPath string, contigs []lasagna.Seq) {
	if refPath == "" {
		return
	}
	ref, _, err := fastq.ReadFile(refPath)
	if err != nil {
		fatal(err)
	}
	if ref.NumReads() == 0 {
		fatal(fmt.Errorf("reference %s holds no sequences", refPath))
	}
	genome := ref.Read(0)
	rep := quality.Evaluate(genome, contigs)
	fmt.Printf("quality vs %s: %s\n", refPath, rep)
}

func findGPU(name string) (lasagna.GPUSpec, bool) {
	for _, s := range lasagna.GPUs {
		if s.Name == name {
			return s, true
		}
	}
	return lasagna.GPUSpec{}, false
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lasagna: %v\n", err)
	os.Exit(1)
}
