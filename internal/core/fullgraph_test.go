package core

import (
	"strings"
	"testing"

	"repro/internal/quality"
	"repro/internal/readsim"
)

// The tests in this file run the full string graph of Section II-A.2, as
// opposed to the paper's greedy graph, through the pipeline: the spmat
// backend builds it from every candidate overlap and reduces it.

func TestFullGraphModeAssembles(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 5000, Seed: 501})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 64, Coverage: 14, Seed: 502})
	cfg := smallConfig(t)
	cfg.GraphBackend = BackendSpmat
	cfg.DedupeReads = true
	cfg.VerifyOverlaps = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReducedEdges == 0 {
		t.Error("dense overlaps should contain transitive edges")
	}
	if res.FalsePositives != 0 {
		t.Errorf("false positives: %d", res.FalsePositives)
	}
	rep := quality.Evaluate(genome, res.Contigs)
	if rep.MisassembledContigs != 0 {
		t.Errorf("%d misassembled contigs", rep.MisassembledContigs)
	}
	if rep.CoverageFraction() < 0.95 {
		t.Errorf("coverage = %.3f", rep.CoverageFraction())
	}
	if rep.N50 < 500 {
		t.Errorf("N50 = %d, expected long unitigs", rep.N50)
	}
}

func TestFullGraphAtLeastAsContiguousAsGreedy(t *testing.T) {
	// The full graph avoids greedy commitment mistakes; on deduplicated
	// error-free data its N50 must be at least the greedy N50.
	genome := readsim.Genome(readsim.GenomeParams{Length: 6000, Seed: 503})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 64, Coverage: 18, Seed: 504})
	run := func(backend string) int {
		cfg := smallConfig(t)
		cfg.GraphBackend = backend
		cfg.DedupeReads = true
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Contigs {
			if !strings.Contains(genome.String(), c.String()) &&
				!strings.Contains(genome.ReverseComplement().String(), c.String()) {
				t.Fatalf("%s: contig %d not a genome substring", backend, i)
			}
		}
		return res.ContigStats.N50
	}
	greedy := run(BackendGreedy)
	full := run(BackendSpmat)
	if full < greedy {
		t.Errorf("full-graph (spmat) N50 %d < greedy N50 %d", full, greedy)
	}
}

func TestFullGraphContigsWrittenToFasta(t *testing.T) {
	_, reads := testGenomeReads(t, 1500, 50, 10)
	cfg := smallConfig(t)
	cfg.GraphBackend = BackendSpmat
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContigPath == "" || len(res.Contigs) == 0 {
		t.Fatal("full-graph mode must still produce FASTA output")
	}
	if _, ok := res.PhaseByName(PhaseReduce); !ok {
		t.Error("reduce phase missing")
	}
	if _, ok := res.PhaseByName(PhaseCompress); !ok {
		t.Error("compress phase missing")
	}
}
