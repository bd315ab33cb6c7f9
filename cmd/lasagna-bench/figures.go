package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/kvio"
	"repro/internal/stats"
)

func writeFastq(path string, rs *dna.ReadSet) error {
	return fastq.WriteFastqFile(path, rs)
}

// partitionFile materializes one H.Genome-like partition's tuple file:
// the workload of the paper's sorting studies ("data generated from
// H.Genome, about 2.5 billion pairs per partition", scaled down). It maps
// the dataset once, keeps the largest suffix partition, and caches it.
func (h *harness) partitionFile() (string, int64, error) {
	path := filepath.Join(h.workspace, "hgenome_partition.kv")
	if n, err := kvio.CountFile(path); err == nil && n > 0 {
		return path, n, nil
	}
	p := h.profiles[3] // H.Genome-like
	rs := h.reads(p)
	dir := filepath.Join(h.workspace, "partgen")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	dev := gpu.NewDevice(gpu.K40, nil)
	sfxW := kvio.NewPartitionWriters(dir, kvio.Suffix, nil)
	pfxW := kvio.NewPartitionWriters(dir, kvio.Prefix, nil)
	mapper := core.NewMapper(dev, nil, p.MinOverlap, 4096, rs.MaxLen())
	fmt.Fprintf(os.Stderr, "[fig] generating H.Genome-like partition data ...\n")
	if err := mapper.MapRange(context.Background(), rs, 0, rs.NumReads(), sfxW, pfxW); err != nil {
		return "", 0, err
	}
	counts := sfxW.Counts()
	if err := sfxW.Close(); err != nil {
		return "", 0, err
	}
	if err := pfxW.Close(); err != nil {
		return "", 0, err
	}
	// Keep the largest partition, drop the rest.
	bestL, bestN := -1, int64(-1)
	for l, n := range counts {
		if n > bestN {
			bestL, bestN = l, n
		}
	}
	src := kvio.PartitionPath(dir, kvio.Suffix, bestL)
	if err := os.Rename(src, path); err != nil {
		return "", 0, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", 0, err
	}
	return path, bestN, nil
}

// sortCell is one partition sort of Figs. 8 and 9.
type sortCell struct {
	// Modeled is the overlapped modeled seconds: the serial per-tier
	// Tiers.Total() less the time stream overlap hides.
	Modeled    float64
	Tiers      costmodel.Breakdown
	DiskPasses int
}

// disk is a scratch-disk bandwidth pair (costmodel.DefaultDisk, SSDDisk).
type disk = struct{ ReadBps, WriteBps float64 }

// sortOnce sorts the partition file under the given block sizes, GPU and
// scratch disk. The tier shares are read from the breakdown, never
// recomputed from raw byte counts here.
func (h *harness) sortOnce(partPath string, mh, md int, card gpu.Spec, d disk) (sortCell, error) {
	meter := costmodel.NewMeter()
	dev := gpu.NewDevice(card, meter)
	dir, err := os.MkdirTemp(h.workspace, "sort-*")
	if err != nil {
		return sortCell{}, err
	}
	defer os.RemoveAll(dir)
	prof := card.CostProfile(d.ReadBps, d.WriteBps)
	lg := costmodel.NewOverlapLedger(prof)
	cfg := extsort.Config{
		Device:           dev,
		Meter:            meter,
		HostBlockPairs:   mh,
		DeviceBlockPairs: md,
		TempDir:          dir,
		Overlap:          lg,
	}
	out := filepath.Join(dir, "sorted.kv")
	st, err := extsort.SortFile(context.Background(), cfg, partPath, out)
	if err != nil {
		return sortCell{}, err
	}
	tiers := meter.Snapshot().Breakdown(prof)
	return sortCell{Modeled: tiers.Total() - lg.SavedSeconds(), Tiers: tiers, DiskPasses: st.DiskPasses}, nil
}

// hostFracs are the m_h = n/frac columns of Figs. 8 and 9.
var hostFracs = []int{16, 8, 4, 2, 1}

// sortGrid is Fig. 8 or 9: one partition of Pairs pairs sorted at every
// hostFracs column, one row per m_d (Fig. 8) or per GPU (Fig. 9).
type sortGrid struct {
	Pairs int64
	Rows  []string
	Cells [][]sortCell
}

// sortRow sorts the partition at every hostFracs column for one m_d.
func (h *harness) sortRow(part string, n int64, md int, card gpu.Spec, d disk) ([]sortCell, error) {
	var row []sortCell
	for _, hf := range hostFracs {
		c, err := h.sortOnce(part, max(int(n)/hf, md), md, card, d)
		if err != nil {
			return nil, err
		}
		row = append(row, c)
	}
	return row, nil
}

// fig8Data is Fig. 8 plus the two-level ablation: the same sort with the
// host block shrunk to the device block, so host memory buffers nothing.
type fig8Data struct {
	sortGrid
	SingleLevel sortCell
}

// fig8DevFracs are Fig. 8's m_d = n/frac rows; the single-level sort
// shares the m_d of row ablationRow (n/64).
var fig8DevFracs = []int{256, 128, 64, 32}

const ablationRow = 2

// twoLevel is the m_h = n cell the single-level sort is compared with.
func (f fig8Data) twoLevel() sortCell {
	row := f.Cells[ablationRow]
	return row[len(row)-1]
}

// fig8 sweeps host and device block-sizes on a K40 (Fig. 8: the host
// block-size dominates because it sets the disk pass count).
func (h *harness) fig8() (fig8Data, error) {
	part, n, err := h.partitionFile()
	if err != nil {
		return fig8Data{}, err
	}
	f := fig8Data{sortGrid: sortGrid{Pairs: n}}
	for _, df := range fig8DevFracs {
		row, err := h.sortRow(part, n, max(int(n)/df, 2), gpu.K40, costmodel.DefaultDisk)
		if err != nil {
			return f, err
		}
		f.Rows = append(f.Rows, fmt.Sprintf("m_d=n/%d", df))
		f.Cells = append(f.Cells, row)
	}
	md := max(int(n)/fig8DevFracs[ablationRow], 2)
	f.SingleLevel, err = h.sortOnce(part, md, md, gpu.K40, costmodel.DefaultDisk)
	return f, err
}

func printFig8(f fig8Data) {
	fmt.Printf("\nFig. 8: sort time per partition (%s pairs) vs block sizes on K40\n",
		stats.FormatCount(f.Pairs))
	printGridHeader("dev \\ host", 14)
	for i, row := range f.Cells {
		fmt.Printf("%-14s", f.Rows[i])
		for _, c := range row {
			fmt.Printf(" %8.3fs/%d", c.Modeled, c.DiskPasses)
		}
		fmt.Println()
	}
	fmt.Println("(overlapped modeled seconds / disk passes; larger host blocks cut passes, device blocks are secondary)")
	two, one := f.twoLevel(), f.SingleLevel
	fmt.Printf("single-level sort (%s, m_h = m_d): %.3fs/%d, %.2fx the two-level m_h = n cell\n",
		f.Rows[ablationRow], one.Modeled, one.DiskPasses, one.Modeled/two.Modeled)
}

func printGridHeader(corner string, width int) {
	fmt.Printf("%-*s", width, corner)
	for _, hf := range hostFracs {
		fmt.Printf(" %11s", fmt.Sprintf("n/%d", hf))
	}
	fmt.Println()
}

// fig9 fixes the device block and sweeps host block-sizes per GPU card
// (Fig. 9: ranking follows memory bandwidth and converges as the sort
// becomes I/O bound).
func (h *harness) fig9() (sortGrid, error) {
	part, n, err := h.partitionFile()
	if err != nil {
		return sortGrid{}, err
	}
	md := max(int(n)/128, 2) // mirrors the paper's fixed 20M of 2.56B pairs
	g := sortGrid{Pairs: n}
	for _, card := range []gpu.Spec{gpu.K40, gpu.P40, gpu.P100, gpu.V100} {
		row, err := h.sortRow(part, n, md, card, costmodel.SSDDisk)
		if err != nil {
			return g, err
		}
		g.Rows = append(g.Rows, card.Name)
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

func printFig9(g sortGrid) {
	fmt.Printf("\nFig. 9: sort time per partition (%s pairs) vs GPU, fixed m_d=n/128, SSD scratch (PSG)\n",
		stats.FormatCount(g.Pairs))
	printGridHeader("GPU", 8)
	for i, row := range g.Cells {
		fmt.Printf("%-8s", g.Rows[i])
		for _, c := range row {
			fmt.Printf(" %10.3fs", c.Modeled)
		}
		// The convergence claim made quantitative: at the largest host
		// block, how much of the modeled time is disk I/O vs the GPU.
		last := row[len(row)-1].Tiers
		ioSec := last.DiskReadSec + last.DiskWriteSec
		devSec := last.DeviceMemSec + last.DeviceOpsSec + last.PCIeSec
		fmt.Printf("  (n/1: disk %4.0f%%, device %4.0f%%)\n",
			100*ioSec/last.Total(), 100*devSec/last.Total())
	}
	fmt.Println("(overlapped modeled seconds; V100 < P100 < P40 < K40 at large host blocks, converging when I/O bound)")
}

// nodeRow is one cluster size of Fig. 10.
type nodeRow struct {
	Nodes int
	runRow
	// ReduceOverlap and ReduceSerial are t_o and t_g, whose ratio bounds
	// useful cluster size at n_max = t_o/t_g.
	ReduceOverlap, ReduceSerial time.Duration
}

// fig10 runs the H.Genome-like dataset on 1-8 simulated SuperMic nodes
// (Fig. 10: map/sort scale with nodes, shuffle appears beyond one node,
// reduce is limited by the serialized graph building).
func (h *harness) fig10() ([]nodeRow, error) {
	p := h.profiles[3]
	rs := h.reads(p)
	var rows []nodeRow
	for _, nodes := range []int{1, 2, 4, 8} {
		dir := filepath.Join(h.workspace, fmt.Sprintf("fig10_n%d", nodes))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cfg := cluster.DefaultConfig(dir, nodes)
		cfg.MinOverlap = p.MinOverlap
		cfg.HostBlockPairs = scaleBlock(supermic.hostBlockPairs, h.scale)
		cfg.DeviceBlockPairs = scaleBlock(supermic.devBlockPairs, h.scale)
		cfg.GPU = supermic.gpu
		fmt.Fprintf(os.Stderr, "[fig10] %d nodes ...\n", nodes)
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := cl.Assemble(rs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, nodeRow{Nodes: nodes, runRow: newRunRow(p.Name, &res.Result),
			ReduceOverlap: res.ReduceOverlapModeled, ReduceSerial: res.ReduceSerialModeled})
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

var fig10Phases = []core.PhaseName{core.PhaseMap, cluster.PhaseShuffle, core.PhaseSort,
	core.PhaseReduce, core.PhaseCompress}

func printFig10(rows []nodeRow) {
	fmt.Printf("\nFig. 10: distributed execution of %s on SuperMic-like nodes (modeled)\n", rows[0].Dataset)
	fmt.Printf("%-6s", "Nodes")
	for _, ph := range fig10Phases {
		fmt.Printf(" %10s", ph)
	}
	fmt.Printf(" %10s\n", "Total")
	for _, r := range rows {
		fmt.Printf("%-6d", r.Nodes)
		for _, ph := range fig10Phases {
			fmt.Printf(" %9.3fs", r.Phases[ph].Modeled.Seconds())
		}
		fmt.Printf(" %9.3fs", r.TotalModeled.Seconds())
		if r.Nodes == 1 && r.ReduceSerial > 0 {
			fmt.Printf("   [t_o=%.3fs t_g=%.3fs -> n_max=t_o/t_g=%.0f]",
				r.ReduceOverlap.Seconds(), r.ReduceSerial.Seconds(),
				r.ReduceOverlap.Seconds()/r.ReduceSerial.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("(shuffle cost appears when scaling beyond one node; reduce scalability is bounded by n_max = t_o/t_g)")
}
