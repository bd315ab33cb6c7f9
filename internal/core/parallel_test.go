package core

import (
	"os"
	"testing"
)

// TestWorkersDeterminism is the contract behind Config.Workers: the
// assembly output and the modeled cost must be byte-identical for every
// worker count, because partition writes, graph insertion, and contig
// emission all happen in a deterministic order regardless of scheduling.
func TestWorkersDeterminism(t *testing.T) {
	_, reads := testGenomeReads(t, 3000, 56, 10)

	type run struct {
		res   *Result
		fasta []byte
	}
	runs := map[int]run{}
	for _, w := range []int{1, 2, 8} {
		cfg := smallConfig(t)
		cfg.Workers = w
		cfg.VerifyOverlaps = true
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		fasta, err := os.ReadFile(res.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		runs[w] = run{res, fasta}
	}

	base := runs[1]
	for _, w := range []int{2, 8} {
		got := runs[w]
		if len(got.res.Contigs) != len(base.res.Contigs) {
			t.Fatalf("Workers=%d: %d contigs, Workers=1 has %d",
				w, len(got.res.Contigs), len(base.res.Contigs))
		}
		for i := range base.res.Contigs {
			if !got.res.Contigs[i].Equal(base.res.Contigs[i]) {
				t.Fatalf("Workers=%d: contig %d differs from serial run", w, i)
			}
		}
		if string(got.fasta) != string(base.fasta) {
			t.Errorf("Workers=%d: contig FASTA bytes differ from serial run", w)
		}
		if got.res.PairsGenerated != base.res.PairsGenerated {
			t.Errorf("Workers=%d: PairsGenerated = %d, want %d",
				w, got.res.PairsGenerated, base.res.PairsGenerated)
		}
		if got.res.CandidateEdges != base.res.CandidateEdges {
			t.Errorf("Workers=%d: CandidateEdges = %d, want %d",
				w, got.res.CandidateEdges, base.res.CandidateEdges)
		}
		if got.res.AcceptedEdges != base.res.AcceptedEdges {
			t.Errorf("Workers=%d: AcceptedEdges = %d, want %d",
				w, got.res.AcceptedEdges, base.res.AcceptedEdges)
		}
		if got.res.FalsePositives != base.res.FalsePositives {
			t.Errorf("Workers=%d: FalsePositives = %d, want %d",
				w, got.res.FalsePositives, base.res.FalsePositives)
		}
		if got.res.SortDiskPasses != base.res.SortDiskPasses {
			t.Errorf("Workers=%d: SortDiskPasses = %d, want %d",
				w, got.res.SortDiskPasses, base.res.SortDiskPasses)
		}
		// Modeled cost is derived from metered byte counts, which are a
		// pure function of the data — never of the schedule.
		if got.res.TotalModeled != base.res.TotalModeled {
			t.Errorf("Workers=%d: TotalModeled = %v, want %v",
				w, got.res.TotalModeled, base.res.TotalModeled)
		}
		for _, ph := range base.res.Phases {
			gp, ok := got.res.PhaseByName(PhaseName(ph.Name))
			if !ok {
				t.Errorf("Workers=%d: phase %s missing", w, ph.Name)
				continue
			}
			if gp.Modeled != ph.Modeled {
				t.Errorf("Workers=%d: phase %s modeled %v, want %v",
					w, ph.Name, gp.Modeled, ph.Modeled)
			}
			if gp.DiskRead != ph.DiskRead || gp.DiskWrite != ph.DiskWrite {
				t.Errorf("Workers=%d: phase %s disk %d/%d, want %d/%d",
					w, ph.Name, gp.DiskRead, gp.DiskWrite, ph.DiskRead, ph.DiskWrite)
			}
		}
	}
}

// TestWorkersDeterminismFullGraph repeats the worker-count contract for
// the full string graph's tail (spmat), whose candidates arrive in a
// worker-dependent order before the builder sorts them and the masked
// two-hop pass reduces them.
func TestWorkersDeterminismFullGraph(t *testing.T) {
	_, reads := testGenomeReads(t, 2000, 48, 8)
	var base *Result
	for _, w := range []int{1, 4} {
		cfg := smallConfig(t)
		cfg.Workers = w
		cfg.GraphBackend = BackendSpmat
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.ReducedEdges != base.ReducedEdges || res.AcceptedEdges != base.AcceptedEdges {
			t.Errorf("Workers=%d: edges reduced/accepted %d/%d, want %d/%d",
				w, res.ReducedEdges, res.AcceptedEdges, base.ReducedEdges, base.AcceptedEdges)
		}
		if len(res.Contigs) != len(base.Contigs) {
			t.Fatalf("Workers=%d: %d contigs, want %d", w, len(res.Contigs), len(base.Contigs))
		}
		for i := range base.Contigs {
			if !res.Contigs[i].Equal(base.Contigs[i]) {
				t.Fatalf("Workers=%d: contig %d differs", w, i)
			}
		}
		if res.TotalModeled != base.TotalModeled {
			t.Errorf("Workers=%d: TotalModeled = %v, want %v", w, res.TotalModeled, base.TotalModeled)
		}
	}
}

// TestWorkersDeterminismSpmatHostPeak pins that the spmat engine's graph
// host accounting is a function of the candidate set alone: the builder's
// bucket capacities depend on how many keys each bucket received, never on
// arrival order, so the Reduce stage's graph peak repeats exactly from run
// to run and across worker counts.
func TestWorkersDeterminismSpmatHostPeak(t *testing.T) {
	_, reads := testGenomeReads(t, 3000, 56, 10)
	var want int64
	for i, w := range []int{1, 2, 2} {
		cfg := smallConfig(t)
		cfg.Workers = w
		cfg.GraphBackend = BackendSpmat
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		reduce, ok := res.PhaseByName(PhaseReduce)
		if !ok || reduce.GraphHostPeak == 0 {
			t.Fatalf("Workers=%d: no graph host peak on Reduce", w)
		}
		if i == 0 {
			want = reduce.GraphHostPeak
		} else if reduce.GraphHostPeak != want {
			t.Errorf("Workers=%d: Reduce graph host peak %d, Workers=1 had %d", w, reduce.GraphHostPeak, want)
		}
	}
}
