package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/contig"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Pipeline is a single-node assembler instance: one Node driven through
// the stage graph, with run-level reporting on top.
type Pipeline struct {
	cfg  Config
	node *Node
	// graphPeakSeen is the run-level high water of per-phase graph peaks,
	// published to the graph.host_peak_bytes gauge (the node's tracker
	// resets its peak per phase).
	graphPeakSeen int64

	// FaultHook, when set, fires after every stage commit (manifest
	// written, consumed inputs cleaned up). Returning an error aborts the
	// run at exactly the point a crash would, leaving the committed stages
	// resumable; the kill-and-restart tests inject crashes through it.
	FaultHook FaultHook
}

// Result reports one assembly run, single-node or (embedded in
// cluster.Result) distributed; a field a cluster cannot compute says so.
type Result struct {
	Phases      []stats.PhaseStats
	Contigs     []dna.Seq
	ContigStats contig.Stats
	ContigPath  string // FASTA output file

	NumReads          int
	DuplicatesRemoved int   // reads dropped by Config.DedupeReads
	Partitions        int   // partition count [lmin, lmax)
	PairsGenerated    int64 // map-phase tuples written
	CandidateEdges    int64 // reduce-phase fingerprint matches
	AcceptedEdges     int64 // directed edges in the final graph
	ReducedEdges      int64 // transitive edges removed (spmat, succinct)
	FalsePositives    int64 // verified-mismatch candidates (VerifyOverlaps)
	SortDiskPasses    int   // max disk passes over any partition

	// CachedStages lists the stages a resumed run (Config.Resume) replayed
	// from the run manifest instead of executing, in pipeline order. Empty
	// on a cold run. Cached stages contribute no PhaseStats.
	CachedStages []string

	TotalWall    time.Duration
	TotalModeled time.Duration

	// OverlapSaved is the modeled time hidden by stream overlap across the
	// run; TotalModeled already has it subtracted. OverlapRatio is the
	// fraction of streamed modeled work hidden by overlap, in [0, 1). A
	// cluster leaves both zero: its TotalModeled is a max over nodes per
	// phase, which no run-wide saving reconciles with; each of its Phases
	// carries the nodes' summed saving.
	OverlapSaved time.Duration
	OverlapRatio float64

	// Counters is the run's final cost-meter snapshot and Modeled its
	// per-tier modeled-seconds breakdown under the configured GPU profile;
	// Modeled.Total() reconciles with TotalModeled's derivation, so report
	// printers never recompute tier shares from raw bytes. On a cluster
	// Counters sums every node meter and the serialized-reduce meter, so
	// Modeled.Total() (aggregate work) exceeds TotalModeled whenever the
	// nodes ran in parallel.
	Counters costmodel.Counters
	Modeled  costmodel.Breakdown
}

// PhaseByName returns the stats for the named phase.
func (r *Result) PhaseByName(name PhaseName) (stats.PhaseStats, bool) {
	for _, p := range r.Phases {
		if p.Name == string(name) {
			return p, true
		}
	}
	return stats.PhaseStats{}, false
}

// New creates a pipeline on a fresh device and meter. In the trace the
// single-node pipeline is pid 0; cluster nodes take pids 1..N.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg}
	p.node = NewNode(cfg, gpu.NewDevice(cfg.GPU, nil), obs.Track{},
		filepath.Join(cfg.Workspace, "partitions"))
	return p, nil
}

// OverlapLedger exposes the run's overlap accounting, for tests and
// diagnostics.
func (p *Pipeline) OverlapLedger() *costmodel.OverlapLedger { return p.node.Ledger }

// Device exposes the simulated device (for tests and diagnostics).
func (p *Pipeline) Device() *gpu.Device { return p.node.Device }

// Meter exposes the cost meter.
func (p *Pipeline) Meter() *costmodel.Meter { return p.node.Meter }

// HostMem exposes the host-memory tracker.
func (p *Pipeline) HostMem() *stats.MemTracker { return p.node.HostMem }

// GraphMem exposes the graph-representation host tracker (for tests and
// diagnostics).
func (p *Pipeline) GraphMem() *stats.MemTracker { return p.node.GraphMem }

// runPhase measures fn as one pipeline phase on the node and adds what is
// run-level: progress callbacks, the graph peak gauge and Result
// accumulation.
func (p *Pipeline) runPhase(name PhaseName, res *Result, fn func() error) error {
	p.progress(string(name), ProgressStart)
	p.cfg.Obs.Log().Debug("stage start", "stage", string(name))
	ps, err := p.node.Measure(name, fn)
	if ps.GraphHostPeak > p.graphPeakSeen {
		p.graphPeakSeen = ps.GraphHostPeak
	}
	if name == PhaseReduce || name == PhaseCompress {
		p.cfg.Obs.Metrics().Gauge(fmt.Sprintf("graph.host_peak_bytes{backend=%q}",
			p.cfg.backend())).Set(p.graphPeakSeen)
	}
	res.Phases = append(res.Phases, ps)
	res.TotalWall += ps.Wall
	res.TotalModeled += ps.Modeled
	if err != nil {
		p.progress(string(name), ProgressFailed)
		p.cfg.Obs.Log().Error("stage failed", "stage", string(name), "err", err)
	} else {
		p.progress(string(name), ProgressDone)
		p.cfg.Obs.Log().Info("stage done", "stage", string(name),
			"wall", ps.Wall, "modeled", ps.Modeled)
	}
	return err
}

// progress delivers one stage lifecycle event to Config.Progress, if set.
func (p *Pipeline) progress(stage, event string) {
	if p.cfg.Progress != nil {
		p.cfg.Progress(stage, event)
	}
}

// AssembleFile loads a FASTQ/FASTA file (the Load phase of Tables II/III)
// and assembles it.
func (p *Pipeline) AssembleFile(path string) (*Result, error) {
	return p.AssembleFileContext(context.Background(), path)
}

// beginRun names the trace process and opens the root run span; the
// returned func ends it. Called once per assembly entry point.
func (p *Pipeline) beginRun() func() {
	tr := p.cfg.Obs.Tracer()
	tr.NameProcess(0, "lasagna")
	p.cfg.Obs.Log().Info("run start", "workers", p.cfg.workers(),
		"gpu", p.cfg.GPU.Name)
	span := tr.Begin(p.node.Track, "run", "assemble").Metered(p.node.Meter, p.node.Profile)
	return span.End
}

// AssembleFileContext is AssembleFile under a cancellation context.
func (p *Pipeline) AssembleFileContext(ctx context.Context, path string) (*Result, error) {
	defer p.beginRun()()
	res := &Result{}
	var rs *dna.ReadSet
	err := p.runPhase(PhaseLoad, res, func() error {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		rs, _, err = fastq.ReadFile(path)
		if err != nil {
			return err
		}
		p.node.Meter.AddDiskRead(info.Size())
		return nil
	})
	if err != nil {
		return res, err
	}
	return p.assembleInto(ctx, res, rs)
}

// Assemble runs the pipeline over an in-memory read set.
func (p *Pipeline) Assemble(rs dna.ReadSource) (*Result, error) {
	return p.AssembleContext(context.Background(), rs)
}

// AssembleContext runs the pipeline under a cancellation context:
// cancelling ctx aborts the run between device batches with ctx.Err(),
// draining every worker goroutine (including allocator waiters). The
// stages committed before the cancellation remain resumable.
func (p *Pipeline) AssembleContext(ctx context.Context, rs dna.ReadSource) (*Result, error) {
	defer p.beginRun()()
	return p.assembleInto(ctx, &Result{}, rs)
}

// assembleInto drives the stage graph: Map -> Sort -> Reduce -> Compress,
// each stage consuming the previous stage's on-disk artifacts and
// committing its own (plus the run manifest) before the next begins. With
// Config.Resume, stages the manifest already covers are replayed from
// their records instead of executed; because Compress always rebuilds the
// overlap graph from the persisted edge list, a resumed run's output is
// byte-identical to a cold one.
func (p *Pipeline) assembleInto(ctx context.Context, res *Result, rs dna.ReadSource) (*Result, error) {
	defer func() {
		res.Counters = p.node.Meter.Snapshot()
		res.Modeled = res.Counters.Breakdown(p.node.Profile)
		res.OverlapSaved = time.Duration(p.node.Ledger.SavedSeconds() * float64(time.Second))
		res.OverlapRatio = p.node.Ledger.OverlapRatio()
		m := p.cfg.Obs.Metrics()
		m.Gauge("core.overlap_saved_us").Set(res.OverlapSaved.Microseconds())
		m.Gauge("core.overlap_ratio_pct").Set(int64(res.OverlapRatio * 100))
	}()
	rs, removed, err := p.cfg.PrepareReads(rs)
	if err != nil {
		return res, err
	}
	res.NumReads, res.DuplicatesRemoved = rs.NumReads(), removed
	p.node.HostMem.Add(rs.ApproxBytes())
	defer p.node.HostMem.Release(rs.ApproxBytes())

	partDir := p.node.Scratch
	edgePath := filepath.Join(p.cfg.Workspace, edgeFileName)

	runner := NewStageRunner(p.cfg.Workspace, p.cfg.Fingerprint(), InputFingerprint(rs),
		p.cfg.Resume, pipelineStages)
	runner.SetObserver(p.cfg.Obs, p.node.Track)
	runner.SetFaultHook(p.FaultHook)
	runner.SetProgress(p.cfg.Progress)
	if runner.ResumeAt() == 0 {
		// Starting from scratch: partitions left by an interrupted or
		// invalidated run must not leak into this one.
		if err := os.RemoveAll(partDir); err != nil {
			return res, err
		}
	}
	if err := os.MkdirAll(partDir, 0o755); err != nil {
		return res, err
	}
	// A crash mid-sort leaves per-sort spill directories behind; they are
	// not resume artifacts (Sort re-runs from Map's committed partitions)
	// and stale run files inside them must never feed a fresh merge.
	if err := sweepSortScratch(partDir); err != nil {
		return res, err
	}

	// Map: fingerprints + partitioning.
	var counts map[int]int64
	err = runner.Run(Stage{
		Name: PhaseMap,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			var sums PartitionSums
			err := p.runPhase(PhaseMap, res, func() (err error) {
				counts, sums, err = p.node.MapBlocks(ctx, rs, []ReadRange{{0, rs.NumReads()}})
				return err
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = sums.Artifacts(counts, inWorkspace(RawPartition))
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			var err error
			counts, err = PartitionCounts(rec, kvio.Suffix.String()+"_")
			if err == nil && len(counts) == 0 {
				err = fmt.Errorf("core: manifest Map record lists no partitions")
			}
			return err
		},
	})
	if err != nil {
		return res, err
	}
	res.Partitions = len(counts)
	pairHist := p.cfg.Obs.Metrics().Histogram("core.partition_pairs",
		1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
	for _, n := range counts {
		res.PairsGenerated += 2 * n // n suffix + n prefix tuples per length
		pairHist.Observe(float64(2 * n))
	}
	p.cfg.Obs.Metrics().Gauge("core.partitions").Set(int64(len(counts)))

	// Sort: external sort of every partition, both kinds. The raw
	// partitions are deleted only after the stage commits, so a crash
	// mid-sort leaves the Map artifacts intact for resume.
	err = runner.Run(Stage{
		Name: PhaseSort,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			var sums PartitionSums
			err := p.runPhase(PhaseSort, res, func() (err error) {
				res.SortDiskPasses, sums, err = p.node.SortPartitions(ctx, counts, RawPartition, sortedPartition)
				return err
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = sums.Artifacts(counts, inWorkspace(sortedPartition))
			out.Meta = map[string]int64{MetaSortDiskPasses: int64(res.SortDiskPasses)}
			out.Cleanup = func() error { return p.node.RemovePartitions(counts, RawPartition) }
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.SortDiskPasses = int(rec.Meta[MetaSortDiskPasses])
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	// Reduce: suffix-prefix matching. Both graph modes persist their
	// accepted edge list to the edge artifact; the in-memory graph is
	// rebuilt from it by Compress, on cold and resumed runs alike.
	err = runner.Run(Stage{
		Name: PhaseReduce,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			var sum kvio.Sum
			err := p.runPhase(PhaseReduce, res, func() (err error) {
				sum, err = p.reducePhase(ctx, rs, counts, edgePath, res)
				return err
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = []Artifact{NewArtifact(edgeFileName, sum)}
			out.Meta = map[string]int64{
				metaCandidateEdges: res.CandidateEdges,
				metaFalsePositives: res.FalsePositives,
				metaAcceptedEdges:  res.AcceptedEdges,
				metaReducedEdges:   res.ReducedEdges,
			}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.CandidateEdges = rec.Meta[metaCandidateEdges]
			res.FalsePositives = rec.Meta[metaFalsePositives]
			res.AcceptedEdges = rec.Meta[metaAcceptedEdges]
			res.ReducedEdges = rec.Meta[metaReducedEdges]
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	// Compress: rebuild the graph from the edge artifact, traverse paths,
	// and generate contigs.
	err = runner.Run(Stage{
		Name: PhaseCompress,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			var sum kvio.Sum
			err := p.runPhase(PhaseCompress, res, func() (err error) {
				sum, err = p.compressPhase(rs, edgePath, res)
				return err
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = []Artifact{NewArtifact(contigFileName, sum)}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.ContigPath = filepath.Join(p.cfg.Workspace, contigFileName)
			contigs, err := contig.LoadFASTA(res.ContigPath)
			if err != nil {
				return err
			}
			res.Contigs = contigs
			res.ContigStats = contig.Summarize(contigs)
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	res.CachedStages = runner.CachedStages()
	if !p.cfg.KeepIntermediate {
		if err := os.RemoveAll(partDir); err != nil {
			return res, err
		}
		if err := os.Remove(edgePath); err != nil && !os.IsNotExist(err) {
			return res, err
		}
	}
	return res, nil
}

// PrepareReads checks the read set the pipeline and the cluster assemble:
// it must be non-empty, and its longest read must exceed MinOverlap and
// fit the graph layer's 16-bit overlap lengths and overhangs. It then
// applies the read-preparation knobs both honour before fingerprinting
// it: DedupeReads drops duplicate reads (returning how many), then
// PackedReads stores the rest 2-bit packed, the encoding the paper's
// host-memory budgets assume. Both need an unpacked ReadSet.
func (c Config) PrepareReads(rs dna.ReadSource) (dna.ReadSource, int, error) {
	switch maxLen := rs.MaxLen(); {
	case rs.NumReads() == 0:
		return rs, 0, fmt.Errorf("core: empty read set")
	case maxLen > math.MaxUint16:
		return rs, 0, fmt.Errorf("core: a read of %d bases exceeds the %d-base read length limit",
			maxLen, math.MaxUint16)
	case maxLen <= c.MinOverlap:
		return rs, 0, fmt.Errorf("core: MinOverlap %d is not below the longest read length %d",
			c.MinOverlap, maxLen)
	}
	if !c.DedupeReads && !c.PackedReads {
		return rs, 0, nil
	}
	concrete, ok := rs.(*dna.ReadSet)
	if !ok {
		return rs, 0, fmt.Errorf("core: DedupeReads/PackedReads need an unpacked ReadSet input")
	}
	removed := 0
	if c.DedupeReads {
		concrete, removed = dna.Deduplicate(concrete)
	}
	if c.PackedReads {
		return dna.PackSource(concrete), removed, nil
	}
	return concrete, removed, nil
}

// pipelineStages is the single-node stage graph, in execution order.
var pipelineStages = []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress}

// Manifest meta keys for the counters a resumed run restores (a cluster
// node's Sort record carries MetaSortDiskPasses too).
const (
	MetaSortDiskPasses = "sortDiskPasses"
	metaCandidateEdges = "candidateEdges"
	metaFalsePositives = "falsePositives"
	metaAcceptedEdges  = "acceptedEdges"
	metaReducedEdges   = "reducedEdges"
)

// contigFileName is the Compress stage's artifact (workspace-relative).
const contigFileName = "contigs.fasta"

// sortedPartition names a sorted partition file inside the node's scratch
// directory (RawPartition names the raw one).
func sortedPartition(k kvio.Kind, length int) string { return RawPartition(k, length) + ".sorted" }

// inWorkspace re-bases a scratch-relative namer on the workspace, which is
// what the run manifest's artifact paths are relative to.
func inWorkspace(name PartitionNamer) PartitionNamer {
	return func(k kvio.Kind, length int) string { return path.Join("partitions", name(k, length)) }
}

// reducePhase feeds every verified candidate, in descending length order,
// to the configured graph engine, seals it, and persists the surviving
// edge list to edgePath, returning the file's sum.
func (p *Pipeline) reducePhase(ctx context.Context, rs dna.ReadSource,
	counts map[int]int64, edgePath string, res *Result) (kvio.Sum, error) {
	eng := p.node.NewGraphEngine(rs)
	defer eng.Release()
	lenHist := p.cfg.Obs.Metrics().Histogram("overlap.length",
		64, 96, 128, 192, 256, 512, 1024)
	err := p.node.FindOverlaps(ctx, rs, counts, sortedPartition, func(o Overlaps) {
		res.CandidateEdges += o.Candidates
		res.FalsePositives += o.FalsePositives
		for _, e := range o.Edges {
			lenHist.Observe(float64(o.Length))
			eng.Add(e.U, e.V, uint16(o.Length))
		}
	})
	if err != nil {
		return kvio.Sum{}, err
	}
	st, err := SealEngine(ctx, eng, p.cfg.Obs.Metrics())
	if err != nil {
		return kvio.Sum{}, err
	}
	res.ReducedEdges = st.Removed
	res.AcceptedEdges = st.NNZ - st.Removed
	return writeEdgeFile(edgePath, p.node.Meter, eng.Live())
}

// sweepSortScratch removes the per-sort spill directories (sort_<kind>_<len>)
// a crashed or cancelled run left under the partition directory. Sorted
// partition files and raw partitions are untouched — only the private
// scratch that sortPhase would normally remove on its way out.
func sweepSortScratch(partDir string) error {
	ents, err := os.ReadDir(partDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "sort_") {
			if err := os.RemoveAll(filepath.Join(partDir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// compressPhase rebuilds the configured engine's graph from the persisted
// edge list, walks it into paths, and generates contigs, returning the
// FASTA's sum. Loading from disk
// rather than reusing Reduce's sealed engine is deliberate: it is the
// single code path shared by cold and resumed runs, so resumed output is
// byte-identical by construction.
func (p *Pipeline) compressPhase(rs dna.ReadSource, edgePath string, res *Result) (kvio.Sum, error) {
	eng := p.node.NewGraphEngine(rs)
	defer eng.Release()
	it, err := newEdgeFileIterator(edgePath, p.node.Meter)
	if err != nil {
		return kvio.Sum{}, err
	}
	err = eng.Load(it.Next)
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return kvio.Sum{}, err
	}
	paths, err := eng.Paths()
	if err != nil {
		return kvio.Sum{}, err
	}
	res.ContigPath = filepath.Join(p.cfg.Workspace, contigFileName)
	var sum kvio.Sum
	res.Contigs, sum, err = WriteContigs(p.node.Device, p.node.Meter, rs, paths, res.ContigPath)
	res.ContigStats = contig.Summarize(res.Contigs)
	return sum, err
}

// WriteContigs spells paths into contig sequences on dev, writes them as
// FASTA to fastaPath, and returns them with the file's sum, folded as it
// was written. It charges the sequence bytes to meter as a disk write; a
// nil meter charges nothing: the cluster master has never metered its
// FASTA write, and keeps not to so its modeled numbers stay comparable
// (ROADMAP item 5 lists the re-baseline).
func WriteContigs(dev *gpu.Device, meter *costmodel.Meter, rs dna.ReadSource,
	paths []graph.Path, fastaPath string) ([]dna.Seq, kvio.Sum, error) {
	contigs := contig.Generate(contig.Config{Device: dev}, paths, rs)
	f, err := os.Create(fastaPath)
	if err != nil {
		return contigs, kvio.Sum{}, err
	}
	sw := &kvio.SumWriter{W: f}
	w := fastq.NewFastaWriter(sw, 80)
	var written int64
	for i, c := range contigs {
		if err := w.Write(fastq.Record{Name: fmt.Sprintf("contig%d len=%d", i, len(c)), Seq: c}); err != nil {
			f.Close()
			return contigs, sw.Sum, err
		}
		written += int64(len(c))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return contigs, sw.Sum, err
	}
	if meter != nil {
		meter.AddDiskWrite(written)
	}
	return contigs, sw.Sum, f.Close()
}
