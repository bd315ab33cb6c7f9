package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// shapeScale is the dataset scale TestPaperShapes runs at. Of the two
// scales tried, 0.05 and 0.1, only 0.1 holds every asserted shape: at 0.05
// Fig. 10's 8-node Map is 2.63/n of the 1-node Map, not near 1/n.
const shapeScale = 0.1

// TestPaperShapes asserts the shape claims of the paper's evaluation
// (EXPERIMENTS.md's ✓ lines) on the rows lasagna-bench prints. Predicates
// read only quantities the host's speed cannot move: modeled seconds, disk
// passes, device peaks and the SGA footprint estimate. Wall clocks are
// reported, not asserted; the one host-peak predicate records a known
// divergence.
func TestPaperShapes(t *testing.T) {
	// The tables and the figures share no runs: two harnesses side by
	// side, each subtest reading the rows its experiment prints.
	t.Run("tables", func(t *testing.T) {
		t.Parallel()
		testTableShapes(t, newHarness(t.TempDir(), shapeScale))
	})
	t.Run("figures", func(t *testing.T) {
		t.Parallel()
		testFigureShapes(t, newHarness(t.TempDir(), shapeScale))
	})
}

func testTableShapes(t *testing.T, h *harness) {
	runs := func(t *testing.T, m machine) []runRow {
		t.Helper()
		rows, err := h.machineRuns(m)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hg := len(h.profiles) - 1 // H.Genome, the largest dataset

	t.Run("table1", func(t *testing.T) {
		// Paper Table I: base ratios and read length / lmin per dataset.
		paper := []struct {
			ratio         float64
			readLen, lmin int
		}{{1, 101, 63}, {7.36, 124, 85}, {20.0, 150, 111}, {27.4, 100, 63}}
		rows := h.table1()
		for i, r := range rows {
			ratio := float64(r.Bases) / float64(rows[0].Bases)
			if math.Abs(ratio/paper[i].ratio-1) > 0.02 || r.ReadLen != paper[i].readLen || r.MinOverlap != paper[i].lmin {
				t.Errorf("%s: ratio %.2f, read length %d, lmin %d; paper %.2f, %d, %d",
					r.Name, ratio, r.ReadLen, r.MinOverlap, paper[i].ratio, paper[i].readLen, paper[i].lmin)
			}
		}
	})

	t.Run("tables2-3", func(t *testing.T) {
		qb, sm := runs(t, qb2), runs(t, supermic)
		order := []core.PhaseName{core.PhaseSort, core.PhaseMap, core.PhaseReduce, core.PhaseCompress}
		for _, rows := range [][]runRow{qb, sm} {
			for _, r := range rows {
				for i := 1; i < len(order); i++ {
					hi, lo := r.Phases[order[i-1]].Modeled, r.Phases[order[i]].Modeled
					if hi <= lo {
						t.Errorf("%s: modeled %s %v <= %s %v", r.Dataset, order[i-1], hi, order[i], lo)
					}
				}
			}
		}
		// Only H.Genome's largest partition outgrows SuperMic's host
		// block: it alone gains sort passes, and its Sort alone slows.
		for i := range qb {
			ratio := sm[i].Phases[core.PhaseSort].Modeled.Seconds() / qb[i].Phases[core.PhaseSort].Modeled.Seconds()
			gains := sm[i].SortDiskPasses > qb[i].SortDiskPasses
			if gains != (i == hg) || (i == hg && ratio < 1.3) || (i != hg && ratio > 1.1) {
				t.Errorf("%s: SuperMic/QB2 sort passes %d/%d, modeled Sort ratio %.2f",
					qb[i].Dataset, sm[i].SortDiskPasses, qb[i].SortDiskPasses, ratio)
			}
		}
	})

	t.Run("tables4-5", func(t *testing.T) {
		sortDev := map[string]int64{}
		for _, m := range []machine{qb2, supermic} {
			md := int64(scaleBlock(m.devBlockPairs, h.scale))
			rows := runs(t, m)
			equal := 0
			for _, r := range rows {
				// A partition smaller than m_d claims less than a full
				// device block (H.Chr14 at this scale): a scale effect.
				if r.PartitionPairs < md {
					continue
				}
				sd := r.Phases[core.PhaseSort].PeakDevice
				if equal == 0 {
					sortDev[m.name] = sd
				} else if sd != sortDev[m.name] {
					t.Errorf("%s %s: Sort(d) %d B, %s's is %d B", m.name, r.Dataset, sd, rows[hg].Dataset, sortDev[m.name])
				}
				equal++
			}
			if equal < 2 {
				t.Errorf("%s: only %d datasets have a partition of at least m_d = %d pairs", m.name, equal, md)
			}
			// Finding, not the paper's shape (ROADMAP item 11): Map holds
			// each batch's records encoded on the host before the
			// partitioned write, so Map(h) scales with MapBatchReads, not
			// with the data, and at this scale it exceeds Sort(h). At scale
			// 1.0 Sort(h) leads, as in the paper (EXPERIMENTS.md). When
			// this fails, update EXPERIMENTS.md.
			mp, so := rows[hg].Phases[core.PhaseMap].PeakHost, rows[hg].Phases[core.PhaseSort].PeakHost
			if so >= mp {
				t.Errorf("%s H.Genome: Sort(h) %d B >= Map(h) %d B; the Table IV divergence is gone", m.name, so, mp)
			}
		}
		if q, s := sortDev[qb2.name], sortDev[supermic.name]; q != 2*s {
			t.Errorf("Sort(d): QB2 %d B, SuperMic %d B; want SuperMic at half", q, s)
		}
	})

	t.Run("table6", func(t *testing.T) {
		rows, err := h.table6()
		if err != nil {
			t.Fatal(err)
		}
		machines := map[string]machine{qb2.name: qb2, supermic.name: supermic}
		for i, r := range rows {
			if want := [2]bool{i == hg, false}; r.SGAOOM != want {
				t.Errorf("%s: SGA OOM on (SuperMic, QB2) = %v, want %v", r.Dataset, r.SGAOOM, want)
			}
			// The ratios divide by the machine the row names.
			m, ok := machines[r.RatioMachine]
			if !ok {
				t.Fatalf("%s: ratio machine %q is not a Table VI machine", r.Dataset, r.RatioMachine)
			}
			var modeled time.Duration
			run := runs(t, m)[i]
			for _, name := range []core.PhaseName{core.PhaseMap, core.PhaseSort, core.PhaseReduce} {
				modeled += run.Phases[name].Modeled
			}
			if want := r.SGAWall.Seconds() / modeled.Seconds(); math.Abs(r.GPUModelRatio-want) > 1e-9*want {
				t.Errorf("%s: GPU-model ratio %.4f, SGA wall over %s's modeled map+sort+reduce is %.4f",
					r.Dataset, r.GPUModelRatio, r.RatioMachine, want)
			}
		}
	})

}

func testFigureShapes(t *testing.T, h *harness) {
	t.Run("fig8", func(t *testing.T) {
		f, err := h.fig8()
		if err != nil {
			t.Fatal(err)
		}
		// Each doubling of m_h removes one disk pass, 5 -> 1, and time.
		minGain := math.Inf(1)
		for i, row := range f.Cells {
			if row[0].DiskPasses != 5 {
				t.Errorf("%s m_h=n/%d: %d disk passes, want 5", f.Rows[i], hostFracs[0], row[0].DiskPasses)
			}
			for j := 1; j < len(row); j++ {
				if row[j].DiskPasses != row[j-1].DiskPasses-1 || row[j].Modeled >= row[j-1].Modeled {
					t.Errorf("%s m_h=n/%d -> n/%d: passes %d -> %d, modeled %.4fs -> %.4fs", f.Rows[i],
						hostFracs[j-1], hostFracs[j], row[j-1].DiskPasses, row[j].DiskPasses, row[j-1].Modeled, row[j].Modeled)
				}
				minGain = math.Min(minGain, row[j-1].Modeled-row[j].Modeled)
			}
		}
		// m_d moves a cell by less than one m_h doubling does.
		for j := range hostFracs {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, row := range f.Cells {
				lo, hi = math.Min(lo, row[j].Modeled), math.Max(hi, row[j].Modeled)
			}
			if hi-lo >= minGain {
				t.Errorf("m_h=n/%d: m_d moves the cell by %.4fs, the smallest m_h doubling gains %.4fs",
					hostFracs[j], hi-lo, minGain)
			}
		}
		// The two-level sort beats the single-level one 3-4x (Section III-B).
		if one, two := f.SingleLevel.Modeled, f.twoLevel().Modeled; one < 3*two {
			t.Errorf("single-level sort %.4fs is %.2fx the two-level %.4fs, want >= 3x", one, one/two, two)
		}
	})

	t.Run("fig9", func(t *testing.T) {
		g, err := h.fig9()
		if err != nil {
			t.Fatal(err)
		}
		card := map[string][]sortCell{}
		for i, name := range g.Rows {
			card[name] = g.Cells[i]
		}
		n, n16 := len(hostFracs)-1, 0
		at := func(name string, col int) float64 { return card[name][col].Modeled }
		// At m_h = n memory bandwidth orders the cards: V100 <= P100 < P40 <= K40.
		if !(at("V100", n) <= at("P100", n) && at("P100", n) < at("P40", n) && at("P40", n) <= at("K40", n)) {
			t.Errorf("m_h=n: K40 %.5fs, P40 %.5fs, P100 %.5fs, V100 %.5fs; want V100 <= P100 < P40 <= K40",
				at("K40", n), at("P40", n), at("P100", n), at("V100", n))
		}
		// The cards converge as the host block shrinks and I/O dominates.
		if small, large := at("V100", n16)/at("K40", n16), at("V100", n)/at("K40", n); small <= large {
			t.Errorf("V100/K40 is %.3f at n/16 and %.3f at n; want closer to 1 at n/16", small, large)
		}
	})

	t.Run("fig10", func(t *testing.T) {
		rows, err := h.fig10()
		if err != nil {
			t.Fatal(err)
		}
		one := rows[0]
		for i, r := range rows {
			if sh := r.Phases[cluster.PhaseShuffle].Modeled; (sh == 0) != (r.Nodes == 1) {
				t.Errorf("%d nodes: Shuffle %v; want 0 only on one node", r.Nodes, sh)
			}
			// Map and Sort scale near 1/n.
			nodes := float64(r.Nodes)
			for _, ph := range []core.PhaseName{core.PhaseMap, core.PhaseSort} {
				frac := r.Phases[ph].Modeled.Seconds() / one.Phases[ph].Modeled.Seconds()
				if frac < 1/nodes || frac > 1.5/nodes {
					t.Errorf("%d nodes: %s at %.2f/n of one node's, want within [1/n, 1.5/n]", r.Nodes, ph, frac*nodes)
				}
			}
			if i > 0 && r.TotalModeled >= rows[i-1].TotalModeled {
				t.Errorf("%d nodes: total %v, not below %d nodes' %v", r.Nodes, r.TotalModeled, rows[i-1].Nodes, rows[i-1].TotalModeled)
			}
		}
	})
}

func TestParseExperiments(t *testing.T) {
	keys := func(es []experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.key)
		}
		return out
	}
	if es, err := parseExperiments("all"); err != nil || len(es) != len(experiments) {
		t.Errorf(`"all": %v, %v; want all %d experiments`, keys(es), err, len(experiments))
	}
	// A valid list runs in print order, whatever order it names them in.
	if es, err := parseExperiments("fig9, Table2"); err != nil || len(es) != 2 || es[0].key != "table2" || es[1].key != "fig9" {
		t.Errorf(`"fig9, Table2": %v, %v; want [table2 fig9]`, keys(es), err)
	}
	for _, c := range []struct{ list, name string }{{"fig8,fgi9", "fgi9"}, {"fig8,,fig9", ""}} {
		es, err := parseExperiments(c.list)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.name)) {
			t.Errorf("%q: %v, %v; want an error naming %q", c.list, keys(es), err, c.name)
		}
	}
}
