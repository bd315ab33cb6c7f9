// Package lasagna is the public API of a from-scratch Go reproduction of
// LaSAGNA (Goswami, Lee, Shams, Park — "GPU-Accelerated Large-Scale Genome
// Assembly", IPDPS 2018): a string-graph genome assembler that finds
// approximate all-pair overlaps via Rabin-Karp fingerprints and a
// semi-streaming map/sort/reduce/compress pipeline designed around a
// two-level memory hierarchy (disk -> host memory -> GPU device memory).
//
// The GPU is simulated (see internal/gpu): device memory is a hard
// capacity bound that drives the same chunked streaming decisions as real
// hardware, and an analytic cost model converts metered work into modeled
// time per GPU card so the paper's evaluation shapes can be regenerated.
//
// Quick start:
//
//	reads, _ := lasagna.LoadReads("reads.fastq")
//	cfg := lasagna.DefaultConfig(workspaceDir)
//	cfg.MinOverlap = 63
//	res, err := lasagna.Assemble(cfg, reads)
//	// res.Contigs, res.ContigStats, res.Phases ...
//
// Distributed assembly over a simulated cluster is the same run on n nodes:
// a ClusterConfig is a Config (followed by every node) plus the node count,
// the input block size and an optional device fleet, and a ClusterResult
// is a Result plus the per-node modeled times. Every Config knob works on
// a cluster.
//
//	cres, err := lasagna.AssembleDistributed(
//		lasagna.ClusterConfig{Config: cfg, Nodes: 8}, reads)
//	// cres.Contigs, cres.Phases (with Shuffle), cres.NodeModeled ...
//
// DefaultClusterConfig is DefaultConfig on the paper's K20X cluster nodes,
// each node serial.
package lasagna

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/readsim"
	"repro/internal/sga"
)

// Core types, re-exported for the public surface.
type (
	// Config parameterizes a single-node assembly (workspace, l_min, the
	// m_h/m_d block sizes, the modeled GPU, traversal options).
	Config = core.Config
	// Result reports a single-node assembly: contigs, per-phase stats,
	// edge counts.
	Result = core.Result
	// ClusterConfig parameterizes a simulated multi-node assembly: a
	// Config plus Nodes, InputBlockReads, Fleet.
	ClusterConfig = cluster.Config
	// ClusterResult reports a distributed assembly: a Result plus the
	// per-node and t_o/t_g modeled times.
	ClusterResult = cluster.Result
	// ReadSet is an in-memory short-read collection.
	ReadSet = dna.ReadSet
	// Seq is a nucleotide sequence.
	Seq = dna.Seq
	// GPUSpec describes a modeled GPU card.
	GPUSpec = gpu.Spec
	// DatasetProfile is a scaled synthetic stand-in for one of the
	// paper's evaluation datasets (Table I).
	DatasetProfile = readsim.Profile
	// BaselineConfig parameterizes the SGA-style FM-index baseline.
	BaselineConfig = sga.Config
	// BaselineResult reports a baseline run.
	BaselineResult = sga.Result
)

// Modeled GPU cards from the paper's evaluation.
var (
	K20X = gpu.K20X
	K40  = gpu.K40
	P40  = gpu.P40
	P100 = gpu.P100
	V100 = gpu.V100
)

// GPUs lists all modeled cards.
var GPUs = gpu.Catalog

// Datasets lists the scaled dataset profiles in Table I order.
var Datasets = readsim.Profiles

// DefaultConfig returns a single-node configuration with sensible block
// sizes for the scaled datasets.
func DefaultConfig(workspace string) Config { return core.DefaultConfig(workspace) }

// DefaultClusterConfig returns DefaultConfig for n serial K20X nodes.
func DefaultClusterConfig(workspace string, nodes int) ClusterConfig {
	return cluster.DefaultConfig(workspace, nodes)
}

// Assemble runs the full single-node pipeline over an in-memory read set.
func Assemble(cfg Config, reads *ReadSet) (*Result, error) {
	return AssembleContext(context.Background(), cfg, reads)
}

// AssembleContext is Assemble under a cancellation context: cancelling ctx
// aborts the run between device batches with ctx.Err(), draining every
// worker goroutine. Stages committed before the cancellation can be resumed
// with Config.Resume.
func AssembleContext(ctx context.Context, cfg Config, reads *ReadSet) (*Result, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return p.AssembleContext(ctx, reads)
}

// AssembleFile loads a FASTQ/FASTA file and assembles it, reporting the
// load as its own phase.
func AssembleFile(cfg Config, path string) (*Result, error) {
	return AssembleFileContext(context.Background(), cfg, path)
}

// AssembleFileContext is AssembleFile under a cancellation context.
func AssembleFileContext(ctx context.Context, cfg Config, path string) (*Result, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return p.AssembleFileContext(ctx, path)
}

// AssembleDistributed runs the simulated multi-node pipeline.
func AssembleDistributed(cfg ClusterConfig, reads *ReadSet) (*ClusterResult, error) {
	return AssembleDistributedContext(context.Background(), cfg, reads)
}

// AssembleDistributedContext is AssembleDistributed under a cancellation
// context.
func AssembleDistributedContext(ctx context.Context, cfg ClusterConfig, reads *ReadSet) (*ClusterResult, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.AssembleContext(ctx, reads)
}

// AssembleBaseline runs the SGA-style FM-index baseline (index + overlap
// + greedy graph + contigs), the comparator of Table VI.
func AssembleBaseline(cfg BaselineConfig, reads *ReadSet) (*BaselineResult, error) {
	a, err := sga.NewAssembler(cfg)
	if err != nil {
		return nil, err
	}
	return a.Assemble(reads)
}

// LoadReads reads a FASTQ or FASTA file into memory.
func LoadReads(path string) (*ReadSet, error) {
	rs, _, err := fastq.ReadFile(path)
	return rs, err
}

// WriteReads writes a read set as FASTQ.
func WriteReads(path string, reads *ReadSet) error {
	return fastq.WriteFastqFile(path, reads)
}

// ParseSeq converts an ASCII base string into a sequence.
func ParseSeq(s string) (Seq, error) { return dna.ParseSeq(s) }

// GenerateDataset materializes a dataset profile's genome and reads.
func GenerateDataset(p DatasetProfile) (genome Seq, reads *ReadSet) {
	return p.Generate()
}
