package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/debruijn"
	"repro/internal/dna"
	"repro/internal/readsim"
	"repro/internal/sga"
	"repro/internal/stats"
)

// harness caches dataset generation and pipeline runs across experiments
// (Tables II and IV share the QB2 runs; III and V share SuperMic).
type harness struct {
	workspace string
	scale     float64
	profiles  []readsim.Profile
	readsets  map[string]*dna.ReadSet
	runs      map[string]*core.Result
	sgaRuns   map[string]*sga.Result
}

func newHarness(workspace string, scale float64) *harness {
	h := &harness{
		workspace: workspace,
		scale:     scale,
		readsets:  map[string]*dna.ReadSet{},
		runs:      map[string]*core.Result{},
		sgaRuns:   map[string]*sga.Result{},
	}
	for _, p := range readsim.Profiles {
		h.profiles = append(h.profiles, p.Scaled(scale))
	}
	return h
}

func (h *harness) reads(p readsim.Profile) *dna.ReadSet {
	if rs, ok := h.readsets[p.Name]; ok {
		return rs
	}
	_, rs := p.Generate()
	h.readsets[p.Name] = rs
	return rs
}

// run executes (or returns the cached) pipeline run for dataset x machine.
func (h *harness) run(p readsim.Profile, m machine) (*core.Result, error) {
	key := p.Name + "|" + m.name
	if res, ok := h.runs[key]; ok {
		return res, nil
	}
	dir := filepath.Join(h.workspace, sanitize(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := m.config(dir, p.MinOverlap, h.scale)
	pipe, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	// Write the dataset once so the Load phase reads a real file, like
	// the paper's pipeline does.
	input := filepath.Join(dir, "reads.fastq")
	if _, err := os.Stat(input); err != nil {
		if err := writeFastq(input, h.reads(p)); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "[run] %s on %s ...\n", p.Name, m.name)
	res, err := pipe.AssembleFile(input)
	if err != nil {
		return nil, err
	}
	h.runs[key] = res
	return res, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// --- Table I ---------------------------------------------------------

// datasetRow is one scaled dataset of Table I.
type datasetRow struct {
	Name                string
	ReadLen, MinOverlap int
	Reads               int
	Bases, FastqBytes   int64
}

func (h *harness) table1() []datasetRow {
	var rows []datasetRow
	for _, p := range h.profiles {
		rs := h.reads(p)
		rows = append(rows, datasetRow{
			Name: p.Name, ReadLen: p.ReadLen, MinOverlap: p.MinOverlap,
			Reads: rs.NumReads(), Bases: rs.TotalBases(),
			FastqBytes: rs.TotalBases()*2 + int64(rs.NumReads())*14,
		})
	}
	return rows
}

func printTable1(scale float64, rows []datasetRow) {
	fmt.Printf("\nTable I: scaled datasets (scale %.3g; paper ratios 1 : 7.4 : 20 : 27.4)\n", scale)
	fmt.Printf("%-11s %7s %10s %14s %10s %6s\n", "Dataset", "Length", "Reads", "Bases", "FASTQ", "lmin")
	for _, r := range rows {
		fmt.Printf("%-11s %7d %10s %14s %10s %6d   (%.1fx)\n",
			r.Name, r.ReadLen, stats.FormatCount(int64(r.Reads)),
			stats.FormatCount(r.Bases), stats.FormatBytes(r.FastqBytes),
			r.MinOverlap, float64(r.Bases)/float64(rows[0].Bases))
	}
}

// --- Tables II to V ---------------------------------------------------

// runRow is one pipeline run's per-phase statistics: Tables II and IV
// read the QB2 rows, III and V the SuperMic ones, Fig. 10 one row per
// cluster size.
type runRow struct {
	Dataset                 string
	Phases                  map[core.PhaseName]stats.PhaseStats
	TotalModeled, TotalWall time.Duration
	SortDiskPasses          int
	// PartitionPairs is the mean suffix-partition size, a lower bound on
	// the largest partition (readsim reads share one length, so every
	// partition holds the same count).
	PartitionPairs int64
}

func newRunRow(dataset string, res *core.Result) runRow {
	row := runRow{
		Dataset:        dataset,
		Phases:         map[core.PhaseName]stats.PhaseStats{},
		TotalModeled:   res.TotalModeled,
		TotalWall:      res.TotalWall,
		SortDiskPasses: res.SortDiskPasses,
	}
	for _, ps := range res.Phases {
		row.Phases[core.PhaseName(ps.Name)] = ps
	}
	if res.Partitions > 0 {
		row.PartitionPairs = res.PairsGenerated / int64(2*res.Partitions)
	}
	return row
}

// machineRuns returns every dataset's pipeline run on m, in Table I order.
func (h *harness) machineRuns(m machine) ([]runRow, error) {
	var rows []runRow
	for _, p := range h.profiles {
		res, err := h.run(p, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, newRunRow(p.Name, res))
	}
	return rows, nil
}

func printRuns(h *harness, m machine, table string, print func(string, machine, []runRow)) error {
	rows, err := h.machineRuns(m)
	if err == nil {
		print(table, m, rows)
	}
	return err
}

var phaseRows = []core.PhaseName{core.PhaseMap, core.PhaseSort, core.PhaseReduce,
	core.PhaseCompress, core.PhaseLoad}

func printPhaseTable(table string, m machine, rows []runRow) {
	fmt.Printf("\n%s: assembly times on %s\n", table, m.name)
	fmt.Printf("%-9s", "")
	for _, r := range rows {
		fmt.Printf(" %22s", r.Dataset)
	}
	fmt.Println()
	for _, name := range phaseRows {
		fmt.Printf("%-9s", name)
		for _, r := range rows {
			ps := r.Phases[name]
			fmt.Printf(" %12s/%9s", stats.FormatDuration(ps.Modeled), stats.FormatDuration(ps.Wall))
		}
		fmt.Println()
	}
	fmt.Printf("%-9s", "Total")
	for _, r := range rows {
		fmt.Printf(" %12s/%9s", stats.FormatDuration(r.TotalModeled), stats.FormatDuration(r.TotalWall))
	}
	fmt.Println("\n(values are modeled/wall)")
}

func printMemoryTable(table string, m machine, rows []runRow) {
	fmt.Printf("\n%s: peak memory on %s\n", table, m.name)
	fmt.Printf("%-11s | %10s %10s %10s %10s | %10s %10s %10s\n",
		"Dataset", "Map(h)", "Sort(h)", "Red.(h)", "Contig(h)", "Map(d)", "Sort(d)", "Red.(d)")
	for _, r := range rows {
		mp, so, re := r.Phases[core.PhaseMap], r.Phases[core.PhaseSort], r.Phases[core.PhaseReduce]
		fmt.Printf("%-11s | %10s %10s %10s %10s | %10s %10s %10s\n",
			r.Dataset,
			stats.FormatBytes(mp.PeakHost), stats.FormatBytes(so.PeakHost), stats.FormatBytes(re.PeakHost),
			stats.FormatBytes(r.Phases[core.PhaseCompress].PeakHost),
			stats.FormatBytes(mp.PeakDevice), stats.FormatBytes(so.PeakDevice), stats.FormatBytes(re.PeakDevice))
	}
	fmt.Println("(h = peak host memory, d = peak device memory)")
}

// --- Table VI ---------------------------------------------------------

// tableVIMachines are Table VI's two columns. Both ratios divide by the
// LaSAGNA run on tableVIMachines[ratioColumn].
var tableVIMachines = [2]machine{supermic, qb2}

const ratioColumn = 1

// table6Row is one dataset of Table VI.
type table6Row struct {
	Dataset string
	// SGAWall is the baseline's index+overlap wall time (it does not
	// depend on the machine); SGAOOM marks the columns whose host budget
	// its FM-index estimate exceeds.
	SGAWall time.Duration
	SGAOOM  [2]bool
	// LaSAGNAWall and LaSAGNAModeled sum map+sort+reduce per column: the
	// paper excludes SGA's error correction and our compress/load alike.
	LaSAGNAWall, LaSAGNAModeled [2]time.Duration
	// RatioMachine names the run WallRatio and GPUModelRatio divide by;
	// both ratios are 0 when SGA is OOM in every column.
	RatioMachine             string
	WallRatio, GPUModelRatio float64
}

// dbgRow contrasts the resident de Bruijn structure with LaSAGNA's
// block-bounded sort buffers on SuperMic (the Table VI footer).
type dbgRow struct {
	Dataset               string
	Resident, SortBuffers int64
}

// sgaRun executes (or returns the cached) baseline run, honouring the
// machine's host-memory budget the way the paper reports SGA going
// out-of-memory on H.Genome with 64 GB. The budget scales with the
// datasets, as the block sizes do, so the OOM cell holds at every scale.
func (h *harness) sgaRun(p readsim.Profile, m machine) (*sga.Result, bool, error) {
	rs := h.reads(p)
	if sga.EstimateIndexBytes(rs) > int64(float64(m.hostBudgetBytes)*h.scale) {
		return nil, true, nil
	}
	if res, ok := h.sgaRuns[p.Name]; ok {
		return res, false, nil
	}
	fmt.Fprintf(os.Stderr, "[sga] %s ...\n", p.Name)
	a, err := sga.NewAssembler(sga.Config{MinOverlap: p.MinOverlap, BreakCycles: true})
	if err != nil {
		return nil, false, err
	}
	_, res := a.Overlaps(rs)
	h.sgaRuns[p.Name] = res
	return res, false, nil
}

func (h *harness) table6() ([]table6Row, error) {
	var rows []table6Row
	for _, p := range h.profiles {
		row := table6Row{Dataset: p.Name, RatioMachine: tableVIMachines[ratioColumn].name}
		for i, m := range tableVIMachines {
			sres, oom, err := h.sgaRun(p, m)
			if err != nil {
				return nil, err
			}
			row.SGAOOM[i] = oom
			if !oom {
				row.SGAWall = sres.TotalTime
			}
			res, err := h.run(p, m)
			if err != nil {
				return nil, err
			}
			for _, name := range []core.PhaseName{core.PhaseMap, core.PhaseSort, core.PhaseReduce} {
				ps, _ := res.PhaseByName(name)
				row.LaSAGNAWall[i] += ps.Wall
				row.LaSAGNAModeled[i] += ps.Modeled
			}
		}
		if row.SGAWall > 0 && row.LaSAGNAWall[ratioColumn] > 0 {
			row.WallRatio = row.SGAWall.Seconds() / row.LaSAGNAWall[ratioColumn].Seconds()
			row.GPUModelRatio = row.SGAWall.Seconds() / row.LaSAGNAModeled[ratioColumn].Seconds()
		}
		rows = append(rows, row)
	}

	return rows, nil
}

// debruijn is the Table VI footer. The paper excludes de Bruijn
// assemblers from Table VI because they hold the whole k-mer structure in
// memory and fail on large inputs. Reproduce the structural contrast:
// resident de Bruijn memory grows with the dataset, LaSAGNA's sort
// working set is block-bounded.
func (h *harness) debruijn() ([]dbgRow, error) {
	var rows []dbgRow
	buffers := int64(2*scaleBlock(supermic.hostBlockPairs, h.scale)) * 24
	for _, p := range h.profiles {
		g, err := debruijn.Build(debruijn.Config{K: 25, MinCount: 1}, h.reads(p))
		if err != nil {
			return nil, err
		}
		rows = append(rows, dbgRow{Dataset: p.Name, Resident: g.ApproxBytes(), SortBuffers: buffers})
	}
	return rows, nil
}

func printTable6(rows []table6Row, dbg []dbgRow) {
	fmt.Printf("\nTable VI: SGA baseline vs LaSAGNA (index+overlap vs map+sort+reduce)\n")
	fmt.Printf("%-11s %24s %24s %12s %12s\n",
		"Dataset", "SGA 64GB / 128GB", "LaSAGNA 64GB / 128GB", "wall ratio", "GPU-model")
	for _, r := range rows {
		var sgaT [2]string
		for i, oom := range r.SGAOOM {
			sgaT[i] = stats.FormatDuration(r.SGAWall)
			if oom {
				sgaT[i] = "OOM"
			}
		}
		ratio, gpuRatio := "-", "-"
		if r.WallRatio > 0 {
			ratio = fmt.Sprintf("%.2fx", r.WallRatio)
			gpuRatio = fmt.Sprintf("%.2fx", r.GPUModelRatio)
		}
		fmt.Printf("%-11s %11s / %10s %11s / %10s %12s %12s\n",
			r.Dataset, sgaT[0], sgaT[1], stats.FormatDuration(r.LaSAGNAWall[0]),
			stats.FormatDuration(r.LaSAGNAWall[1]), ratio, gpuRatio)
	}
	fmt.Printf("(wall ratio = SGA wall / LaSAGNA wall on this CPU; GPU-model = SGA wall / LaSAGNA modeled time; both on %s)\n",
		tableVIMachines[ratioColumn].name)

	fmt.Printf("\nde Bruijn baseline (k=25): resident k-mer memory vs LaSAGNA's block-bounded sort buffers (%s)\n",
		supermic.name)
	for _, r := range dbg {
		fmt.Printf("%-11s dBG resident: %10s   LaSAGNA sort buffers: %10s (fixed)\n",
			r.Dataset, stats.FormatBytes(r.Resident), stats.FormatBytes(r.SortBuffers))
	}
	fmt.Println("(the de Bruijn structure must stay resident and grows with the dataset — the")
	fmt.Println(" paper's stated reason for excluding dBG assemblers, which went OOM on Table VI)")
}
