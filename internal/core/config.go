// Package core orchestrates the single-node LaSAGNA pipeline (Fig. 4):
// map (fingerprint generation + partitioning), sort (hybrid external
// sort), reduce (suffix-prefix matching + greedy graph), and compress
// (path traversal + contig generation).
//
// The pipeline owns a simulated GPU device, a host-memory tracker, and a
// cost meter; every phase reports wall time, modeled time under the
// configured hardware profile, peak host and device memory, and disk
// traffic — the measurements behind Tables II-V of the paper.
package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/obs"
)

// Config parameterizes an assembly run: the knobs that change the answer
// (or the machine it is computed on) plus the execution knobs the resume
// fingerprint leaves out. An ablation configures the layer it ablates — a
// Mapper's NaiveKernel — not this struct.
type Config struct {
	// Workspace is the scratch directory for partition files, sort runs,
	// and outputs. It must exist.
	Workspace string
	// Workers bounds the pipeline's partition-level concurrency: map
	// batches in flight, partitions sorted at once, and partitions reduced
	// at once. Each in-flight unit holds its own device batch allocation,
	// so device-memory capacity still bounds effective concurrency
	// whatever the setting. 0 means runtime.GOMAXPROCS(0) (on every node,
	// for a cluster); 1 reproduces the serial pipeline exactly. Output and modeled cost are byte-
	// identical for every value (see DESIGN.md, "Concurrency model").
	Workers int
	// MinOverlap is l_min: candidate overlaps shorter than this are
	// discarded during partitioning.
	MinOverlap int
	// HostBlockPairs is m_h, the number of key-value pairs sorted per
	// host-memory block; it controls the number of disk passes.
	HostBlockPairs int
	// DeviceBlockPairs is m_d, the number of pairs per device chunk; it
	// controls the number of device merge passes.
	DeviceBlockPairs int
	// MapBatchReads is the number of reads shipped to the device per map
	// kernel launch.
	MapBatchReads int
	// GPU selects the modeled card.
	GPU gpu.Spec
	// IncludeSingletons emits single-read contigs for reads that joined
	// no path.
	IncludeSingletons bool
	// BreakCycles walks residual cycles during traversal.
	BreakCycles bool
	// KeepIntermediate retains partition and sorted files after the run
	// (on a cluster, every node's directory).
	KeepIntermediate bool
	// Resume re-enters an interrupted run mid-pipeline: when the workspace
	// holds a run manifest whose config fingerprint, input hash, and
	// resume-point artifacts all validate, the committed stages are
	// skipped and their counters replayed from the manifest. Output is
	// byte-identical to a cold run. Any mismatch — changed configuration,
	// different reads, corrupted or missing artifacts — falls back to a
	// full re-run; stale state is never trusted. See DESIGN.md, "Stage
	// graph and resume".
	Resume bool
	// TransitiveFuzz is the overhang slack allowed when identifying
	// transitive edges under the spmat and succinct engines (0 suits
	// exact, error-free overlaps).
	TransitiveFuzz int
	// GraphBackend selects the engine behind the Reduce and Compress
	// stages (DESIGN.md, "Graph engines"); it is the one field that does.
	// "" or BackendGreedy is the paper's greedy bit-vector graph.
	// BackendSpmat builds the full string graph of Section II-A.2 (every
	// candidate overlap becomes an edge, at a memory cost proportional to
	// the overlaps instead of the reads) as a CSR sparse matrix, removes
	// transitive edges with a masked SpGEMM pass metered as batched, tiled
	// device kernels (see internal/spmat), and spells contigs from unitig
	// chains; it removes a superset of the edges Myers' sweep (the test
	// oracle in internal/sgraph) removes while preserving reachability (see
	// DESIGN.md, "Sparse-matrix graph backend"). The former "full" backend,
	// which ran that sweep in the pipeline, is rejected by Validate.
	// BackendSuccinct runs the same reduction predicate over a
	// delta-compressed adjacency store built streaming off the sorted
	// candidate runs, trading decode work for a host peak several times
	// below the CSR and edge-list layouts (see DESIGN.md, "Succinct overlap-
	// graph store"). spmat and succinct produce byte-identical contigs.
	// Output-relevant: part of the resume fingerprint.
	GraphBackend string
	// PackedReads stores the bulk reads 2-bit packed (a quarter of the
	// byte-per-base footprint), matching the encoding the paper's
	// host-memory accounting assumes; reads are unpacked per access.
	PackedReads bool
	// DedupeReads removes duplicate reads (including reverse-complement
	// duplicates) before assembly. The paper does not deduplicate, but
	// duplicate reads fragment contigs on every backend (greedy 2-cycles,
	// unreducible branches in the string graph); see dna.Deduplicate.
	DedupeReads bool
	// VerifyOverlaps cross-checks every candidate edge against the actual
	// read sequences before inserting it, turning fingerprint false
	// positives into hard errors. The paper reports zero false positives
	// with 128-bit fingerprints; this switch proves it per run.
	VerifyOverlaps bool
	// Obs is the observability sink: span tracing, structured logging,
	// and the metrics registry. Nil (the default) disables all
	// instrumentation; runs are byte-identical either way. Like the other
	// execution knobs it is excluded from the resume fingerprint.
	Obs *obs.Observer
	// Progress, when set, receives one callback per stage lifecycle
	// transition: ProgressStart/ProgressDone/ProgressFailed around fresh
	// execution and ProgressCached when a resumed run replays the stage
	// from the manifest (a cluster reports each of its phases once, not
	// once per node). Callbacks run on the stage-driver goroutine, so
	// implementations must be fast and must not call back into the
	// pipeline. The serve layer uses it to publish per-job progress over
	// HTTP. Execution knob: excluded from the resume fingerprint.
	Progress func(stage string, event string)
}

// The Config.GraphBackend values.
const (
	// BackendGreedy is the paper's reduce/compress engine (also the
	// resolution of the empty string).
	BackendGreedy = "greedy"
	// BackendSpmat is the sparse-matrix engine: CSR adjacency, masked
	// SpGEMM transitive reduction, unitig compression.
	BackendSpmat = "spmat"
	// BackendSuccinct is the compressed-store engine: the string graph's
	// adjacency held as delta-compressed byte streams indexed by
	// Elias–Fano offsets, constructed in a single streaming pass off the
	// sorted candidate runs (the full edge list never materializes in
	// host memory), with the same masked transitive-reduction predicate
	// as spmat and the same unitig compression (see internal/succinct).
	BackendSuccinct = "succinct"
)

// Backends lists the valid GraphBackend values, for CLI/API validation.
var Backends = []string{BackendGreedy, BackendSpmat, BackendSuccinct}

// Progress events delivered to Config.Progress.
const (
	ProgressStart  = "start"
	ProgressDone   = "done"
	ProgressFailed = "failed"
	ProgressCached = "cached"
)

// DefaultConfig returns a configuration sized for the scaled reproduction
// datasets: a K40-class device profile with block sizes that exercise the
// two-level streaming model without fitting everything in one pass.
func DefaultConfig(workspace string) Config {
	return Config{
		Workspace:         workspace,
		Workers:           runtime.GOMAXPROCS(0),
		MinOverlap:        63,
		HostBlockPairs:    1 << 20,
		DeviceBlockPairs:  1 << 16,
		MapBatchReads:     4096,
		GPU:               gpu.K40,
		IncludeSingletons: false,
		BreakCycles:       true,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Workspace == "" {
		return fmt.Errorf("core: empty workspace")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.MinOverlap < 1 {
		return fmt.Errorf("core: MinOverlap must be >= 1, got %d", c.MinOverlap)
	}
	if c.HostBlockPairs <= 0 || c.DeviceBlockPairs <= 0 {
		return fmt.Errorf("core: block sizes must be positive")
	}
	if c.DeviceBlockPairs > c.HostBlockPairs {
		return fmt.Errorf("core: device block (%d) exceeds host block (%d)",
			c.DeviceBlockPairs, c.HostBlockPairs)
	}
	if c.MapBatchReads <= 0 {
		return fmt.Errorf("core: MapBatchReads must be positive")
	}
	if need := int64(2*c.DeviceBlockPairs) * kv.PairBytes; need > c.GPU.MemBytes {
		return fmt.Errorf("core: device block needs %d bytes, %s has %d",
			need, c.GPU.Name, c.GPU.MemBytes)
	}
	if c.GraphBackend == "full" {
		// Not mapped to spmat: spmat may remove more edges than the sweep
		// did, so the FASTA a "full" run wrote can differ.
		return fmt.Errorf("core: GraphBackend %q was removed; use %q, which reduces the same string graph", c.GraphBackend, BackendSpmat)
	}
	if c.GraphBackend != "" && !slices.Contains(Backends, c.GraphBackend) {
		return fmt.Errorf("core: unknown GraphBackend %q (want one of %v)", c.GraphBackend, Backends)
	}
	return nil
}

// backend resolves the GraphBackend knob: the empty string means greedy.
func (c Config) backend() string {
	if c.GraphBackend == "" {
		return BackendGreedy
	}
	return c.GraphBackend
}

// GreedyGraph reports whether Reduce builds the paper's greedy bit-vector
// graph: the one engine whose result depends on candidates arriving in
// descending length, which a cluster serializes by forwarding the
// bit-vector between partition owners.
func (c Config) GreedyGraph() bool { return c.backend() == BackendGreedy }

// Profile returns the cost-model profile for the configured card on the
// default disk (and, for clusters, InfiniBand links).
func (c Config) Profile() costmodel.Profile {
	return c.GPU.CostProfile(costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps)
}

// workers resolves the Workers knob: 0 means one worker per CPU.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// DeviceDemandBytes returns an upper bound on the device memory this
// configuration can hold concurrently while assembling reads of at most
// maxReadLen bases. Each pipeline worker holds at most one batch
// allocation at a time (the AllocWait contract), so the bound is
// workers x the largest single-batch claim any stage makes:
//
//   - Map: the read batch on both strands plus the per-block scan
//     buffers (see Mapper.mapBatch),
//   - Sort: the radix double-buffer and the two-level merge windows
//     (see extsort.sortHostBlock / mergeFiles),
//   - Reduce: a suffix+prefix window pair plus the three bound/count
//     vectors (see overlap.ReducePaths).
//
// The serve scheduler leases exactly this many bytes from the shared
// device before admitting a job, which is what makes multi-tenant
// packing safe: the sum of admitted leases can never exceed the card.
func (c Config) DeviceDemandBytes(maxReadLen int) int64 {
	l := int64(maxReadLen)
	mapBytes := 2*int64(c.MapBatchReads)*l + 64*int64(runtime.GOMAXPROCS(0))*l
	sortBytes := 4 * int64(c.DeviceBlockPairs) * kv.PairBytes
	window := int64(max(c.HostBlockPairs/2, 1))
	reduceBytes := 2*window*kv.PairBytes + 12*window
	return int64(c.workers()) * max(mapBytes, sortBytes, reduceBytes)
}

// PhaseName identifies a pipeline phase in results.
type PhaseName string

// The pipeline phases, in execution order, matching the row labels of
// Tables II and III.
const (
	PhaseLoad     PhaseName = "Load"
	PhaseMap      PhaseName = "Map"
	PhaseSort     PhaseName = "Sort"
	PhaseReduce   PhaseName = "Reduce"
	PhaseCompress PhaseName = "Compress"
)
