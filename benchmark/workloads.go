package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	lasagna "repro"
	"repro/internal/cluster"
	"repro/internal/contig"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/stats"
)

// benchWorkers is fixed, never GOMAXPROCS-derived, so numbers compare
// across machines.
const benchWorkers = 2

// minReps is the floor on timed repetitions of an assembly workload,
// whatever -seconds says.
const minReps = 3

// setupRounds is how often set-up generates its inputs; setup_s takes the
// median round.
const setupRounds = 5

// workload is one named set of inputs and the way the program is run on it.
type workload struct {
	Name string
	Why  string
	// tune turns the default single-node configuration into this
	// workload's; nil for the workloads that are not core.Pipeline runs.
	tune func(*core.Config)
	// reference names the tune of the single-node run whose FASTA this
	// workload's must equal byte for byte; nil when the workload is its own
	// reference.
	reference func(*core.Config)
	// Undeclared, when set, is why BENCHMARK.json does not list the
	// workload for the driver: the program runs it all the same.
	Undeclared string
	run        func(r *runner, w workload) (*workloadResult, error)
}

func tuneSpmat(c *core.Config) { c.GraphBackend = core.BackendSpmat }

var workloads = []workload{
	{Name: "asm_onepass",
		Why:  "H.Genome x0.5 reads, greedy, default m_h=2^20/m_d=2^16: every partition fits one host block, Map and Sort share the time (fingerprint, Map-side kvio writers)",
		tune: func(*core.Config) {}, run: (*runner).runAssembly},
	{Name: "asm_multipass",
		Why:  "same reads, m_h=16384/m_d=4096 -> 4 disk passes: the paper's Fig. 8 regime, extsort merge rounds, bulk kvio and gpu sort/merge dominate; a Map-only gain barely moves it",
		tune: func(c *core.Config) { c.HostBlockPairs, c.DeviceBlockPairs = 16384, 4096 }, run: (*runner).runAssembly},
	{Name: "asm_spmat",
		Why:  "same reads, GraphBackend=spmat: Reduce is ~40% of wall (CSR build, masked two-hop reduction, unitigs); the greedy graph layer is bypassed",
		tune: tuneSpmat, run: (*runner).runAssembly},
	{Name: "asm_succinct",
		Why:  "same reads, GraphBackend=succinct: same reducer over the compressed store (SortStream -> Builder -> per-vertex decode), so a gain for spmat that costs succinct shows; FASTA must equal asm_spmat's",
		tune: func(c *core.Config) { c.GraphBackend = core.BackendSuccinct }, reference: tuneSpmat, run: (*runner).runAssembly},
	{Name: "cluster_4node",
		Why:       "same reads through LoadReads + AssembleDistributed on 4 simulated nodes: the only workload running shuffle, per-node sort, ring reduce; guards that path, is not a scaling measurement on 2 cores",
		reference: func(*core.Config) {}, run: (*runner).runAssembly},
	{Name: "serve_jobs",
		Why:        "lasagna-serve defaults behind loopback HTTP, 2 closed-loop clients each cycling 3 interactive (H.Chr14 x0.25) + 1 batch (x1) job: per-job fixed costs dominate, the opposite regime from asm_*",
		Undeclared: "its job latency follows the filesystem's dirty-metadata cycle (0.30-0.49 s over ~30 s periods on this box), so runs of any affordable length spread 13-31% in wall_s, more than the largest bound the driver allows",
		run:        (*runner).runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner holds what every workload run shares.
type runner struct {
	workdir  string
	traceDir string // where trace_<workload>.json is written
	seed     int64
	seconds  float64
	reps     int     // timed repetitions or serve cycles per client; 0: by seconds
	scale    float64 // 1 in the command; the tests shrink the inputs
	rounds   int     // replayRounds in the command; the tests replay once
	trace    bool
	log      io.Writer
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples are the timed operations' seconds behind wall_s.
	Samples []float64 `json:"samples,omitempty"`
}

func (res *workloadResult) fail(ops int, format string, args ...any) {
	res.Failed += ops
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

// dataset is one generated input: the program gets only Fastq.
type dataset struct {
	Genome dna.Seq
	Fastq  string
	Bytes  int64
	Reads  int
	Bases  int64
}

// generate materializes profile p under the run's seed and writes its reads
// as FASTQ into dir.
func (r *runner) generate(dir string, p readsim.Profile, factor float64) (*dataset, error) {
	p = p.Scaled(factor * r.scale)
	p.Seed += 1000 * r.seed
	genome, reads := p.Generate()
	path := filepath.Join(dir, fmt.Sprintf("%s_x%g.fastq", p.Name, factor))
	if err := lasagna.WriteReads(path, reads); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &dataset{Genome: genome, Fastq: path, Bytes: info.Size(),
		Reads: reads.NumReads(), Bases: reads.TotalBases()}, nil
}

// setupInputs runs gen setupRounds times and returns the last round's
// datasets with the median round's seconds.
func (r *runner) setupInputs(gen func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := gen(); err != nil {
			return 0, fmt.Errorf("generating inputs: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// runStats is what the benchmark reads off one assembly, single-node or
// cluster.
type runStats struct {
	Wall         time.Duration // input path -> FASTA file closed
	Phases       []stats.PhaseStats
	Modeled      time.Duration
	Counters     costmodel.Counters
	Breakdown    costmodel.Breakdown
	OverlapSaved time.Duration
	Candidates   int64
	Accepted     int64
	Reduced      int64
	Pairs        int64
	DiskPasses   int
	Contigs      []dna.Seq
	Fasta        []byte // the FASTA file as written
}

// phase returns the named phase's stats, zero if the run had no such phase.
func (s *runStats) phase(name core.PhaseName) stats.PhaseStats {
	for _, p := range s.Phases {
		if p.Name == string(name) {
			return p
		}
	}
	return stats.PhaseStats{}
}

func (s *runStats) graphHostPeak() (peak int64) {
	for _, p := range s.Phases {
		peak = max(peak, p.GraphHostPeak)
	}
	return peak
}

// newWorkspace makes a fresh empty directory under the run's workdir.
func (r *runner) newWorkspace(prefix string) (string, error) {
	return os.MkdirTemp(r.workdir, prefix+"-")
}

// assemble runs the single-node pipeline on the FASTQ file in a fresh
// workspace. The workspace is removed unless cfg keeps intermediates, in
// which case its path is returned for the replays.
func (r *runner) assemble(fastqPath string, tune func(*core.Config)) (*runStats, string, error) {
	ws, err := r.newWorkspace("ws")
	if err != nil {
		return nil, "", err
	}
	cfg := lasagna.DefaultConfig(ws)
	cfg.Workers = benchWorkers
	tune(&cfg)
	runtime.GC()
	start := time.Now()
	var res *core.Result
	if cfg.Resume {
		// As the job service runs it: reads parsed first, no Load phase.
		var reads *dna.ReadSet
		if reads, err = lasagna.LoadReads(fastqPath); err == nil {
			res, err = lasagna.Assemble(cfg, reads)
		}
	} else {
		res, err = lasagna.AssembleFile(cfg, fastqPath)
	}
	wall := time.Since(start)
	if err != nil {
		os.RemoveAll(ws)
		return nil, "", err
	}
	fasta, err := os.ReadFile(res.ContigPath)
	if err != nil {
		os.RemoveAll(ws)
		return nil, "", err
	}
	st := &runStats{Wall: wall, Phases: res.Phases, Modeled: res.TotalModeled,
		Counters: res.Counters, Breakdown: res.Modeled, OverlapSaved: res.OverlapSaved,
		Candidates: res.CandidateEdges, Accepted: res.AcceptedEdges, Reduced: res.ReducedEdges,
		Pairs: res.PairsGenerated, DiskPasses: res.SortDiskPasses,
		Contigs: res.Contigs, Fasta: fasta}
	if cfg.KeepIntermediate {
		return st, ws, nil
	}
	return st, "", os.RemoveAll(ws)
}

// assembleCluster loads the FASTQ file and runs it through the 4-node
// simulated cluster in a fresh workspace.
func (r *runner) assembleCluster(fastqPath string) (*runStats, error) {
	ws, err := r.newWorkspace("cluster")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ws)
	runtime.GC()
	start := time.Now()
	reads, err := lasagna.LoadReads(fastqPath)
	if err != nil {
		return nil, err
	}
	res, err := lasagna.AssembleDistributed(cluster.DefaultConfig(ws, 4), reads)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	fasta, err := os.ReadFile(res.ContigPath)
	if err != nil {
		return nil, err
	}
	return &runStats{Wall: wall, Phases: res.Phases, Modeled: res.TotalModeled,
		Counters: res.Counters, Breakdown: res.Modeled,
		Candidates: res.CandidateEdges, Accepted: res.AcceptedEdges, Reduced: res.ReducedEdges,
		Contigs: res.Contigs, Fasta: fasta}, nil
}

// runAssembly is the asm_* and cluster_4node workloads: a reference run
// where the workload has one, a discarded warm-up, then timed repetitions
// for -seconds (at least minReps), each in a fresh workspace.
func (r *runner) runAssembly(w workload) (*workloadResult, error) {
	res := &workloadResult{Name: w.Name, Metrics: map[string]float64{}}
	dir, err := r.newWorkspace("in")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var ds *dataset
	genSec, err := r.setupInputs(func() (err error) {
		ds, err = r.generate(dir, readsim.HGenome, 0.5)
		return err
	})
	if err != nil {
		return nil, err
	}
	once := func() (*runStats, error) {
		if w.tune == nil {
			return r.assembleCluster(ds.Fastq)
		}
		st, _, err := r.assemble(ds.Fastq, w.tune)
		return st, err
	}

	setupSec := genSec
	var ref *runStats
	if w.reference != nil {
		if ref, _, err = r.assemble(ds.Fastq, w.reference); err != nil {
			return nil, fmt.Errorf("reference assembly: %w", err)
		}
		setupSec += ref.Wall.Seconds()
	}
	warm, err := once()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Every repetition must reproduce the warm-up's bytes; the warm-up's
	// are held to the reference and to the simulated genome.
	var broken []string
	if ref != nil && !bytes.Equal(warm.Fasta, ref.Fasta) {
		broken = append(broken, "FASTA differs from the reference single-node assembly")
	}
	rep := evaluate(ds.Genome, warm.Contigs)
	if rep.MisassembledContigs > 0 {
		broken = append(broken, fmt.Sprintf("%d contigs align nowhere in the genome", rep.MisassembledContigs))
	}

	var last *runStats
	var measured float64
	for i := 0; r.moreReps(i, measured); i++ {
		res.Attempted++
		st, err := once()
		if err != nil {
			res.fail(1, "repetition %d: %v", i, err)
			continue
		}
		res.checkRepetition(i, st, warm, len(broken) > 0)
		last = st
		res.Samples = append(res.Samples, st.Wall.Seconds())
		measured += st.Wall.Seconds()
	}
	res.Failures = append(res.Failures, broken...)
	if last == nil {
		return res, nil
	}

	// Where the workload's own result does not carry a counter
	// (cluster.Result has no graph peak), the reference run of the same
	// reads supplies it.
	peak := last.graphHostPeak()
	if peak == 0 && ref != nil {
		peak = ref.graphHostPeak()
	}
	if !r.trace {
		res.Metrics["setup_s"] = setupSec
		res.Metrics["wall_s"] = median(res.Samples)
		res.Metrics["jobs_per_s"] = float64(len(res.Samples)) / measured
		res.Metrics["modeled_s"] = last.Modeled.Seconds()
		res.Metrics["disk_bytes_per_base"] = float64(last.Counters.DiskReadBytes+last.Counters.DiskWriteBytes) / float64(ds.Bases)
		res.Metrics["graph_host_peak_mib"] = mib(peak)
		res.Metrics["genome_coverage_frac"] = rep.CoverageFraction()
		res.Metrics["n50_bp"] = float64(rep.N50)
		return res, nil
	}
	return res, r.traceAssembly(w, ds, last, median(res.Samples), res)
}

// checkRepetition fails timed repetition i unless it reproduced the
// warm-up's FASTA bytes and modeled time, and the warm-up's own output held
// up (broken: it differed from the reference or misassembled).
func (res *workloadResult) checkRepetition(i int, st, warm *runStats, broken bool) {
	switch {
	case !bytes.Equal(st.Fasta, warm.Fasta):
		res.fail(1, "repetition %d: FASTA differs from the warm-up's", i)
	case st.Modeled != warm.Modeled:
		res.fail(1, "repetition %d: modeled %v, warm-up %v", i, st.Modeled, warm.Modeled)
	case broken:
		res.Failed++
	}
}

// moreReps decides whether timed repetition i (from 0) runs, given the
// seconds measured so far. A traced run needs one untraced repetition only:
// the base its counts and overheads are held against.
func (r *runner) moreReps(i int, measured float64) bool {
	switch {
	case r.trace:
		return i < 1
	case r.reps > 0:
		return i < r.reps
	}
	return i < minReps || measured < r.seconds
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }

// evaluate is quality.Evaluate with the genome indexed by its k-mers:
// Evaluate scans the genome once per contig, which on the unitig backends'
// tens of thousands of contigs costs more than the assembly. A test holds
// the two equal.
func evaluate(genome dna.Seq, contigs []dna.Seq) quality.Report {
	const k = 32
	rep := quality.Report{Stats: contig.Summarize(contigs), GenomeLen: len(genome)}
	pack := func(s dna.Seq) (key uint64) {
		for _, c := range s[:k] {
			key = key<<2 | uint64(c)
		}
		return key
	}
	index := make(map[uint64][]int32, len(genome))
	for i := 0; i+k <= len(genome); i++ {
		key := pack(genome[i:])
		index[key] = append(index[key], int32(i))
	}
	// find is the first position where c occurs in the genome, or -1.
	find := func(c dna.Seq) int {
		if len(c) < k {
			return bytes.Index(genome, c)
		}
		for _, pos := range index[pack(c)] {
			if int(pos)+len(c) <= len(genome) && bytes.Equal(genome[pos:int(pos)+len(c)], c) {
				return int(pos)
			}
		}
		return -1
	}
	covered := make([]bool, len(genome))
	for _, c := range contigs {
		pos := find(c)
		if pos < 0 {
			pos = find(c.ReverseComplement())
		}
		if pos < 0 {
			rep.MisassembledContigs++
			continue
		}
		rep.ExactContigs++
		rep.LargestAlignment = max(rep.LargestAlignment, len(c))
		for i := pos; i < pos+len(c); i++ {
			covered[i] = true
		}
	}
	for _, c := range covered {
		if c {
			rep.CoveredBases++
		}
	}
	return rep
}
