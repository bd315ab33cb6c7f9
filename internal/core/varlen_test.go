package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/readsim"
)

// TestAssembleVariableLengthReads exercises the pipeline with reads of
// mixed lengths (trimmed reads are common in real data): per-read
// partition ranges [lmin, len) differ, the greedy graph must honour each
// vertex's own length, and contigs must still be genome substrings.
func TestAssembleVariableLengthReads(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 3000, Seed: 601})
	rng := rand.New(rand.NewSource(602))
	rs := dna.NewReadSet(600, 600*64)
	// Sample reads of length 40..64 from both strands.
	for i := 0; i < 600; i++ {
		n := 40 + rng.Intn(25)
		pos := rng.Intn(len(genome) - n + 1)
		read := genome[pos : pos+n].Clone()
		if rng.Intn(2) == 1 {
			read = read.ReverseComplement()
		}
		rs.Append(read)
	}
	cfg := smallConfig(t)
	cfg.MinOverlap = 25
	cfg.VerifyOverlaps = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("false positives: %d", res.FalsePositives)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	gs, grc := genome.String(), genome.ReverseComplement().String()
	for i, c := range res.Contigs {
		if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
			t.Errorf("contig %d not a genome substring", i)
		}
	}
	// Variable lengths must yield partitions beyond the shortest read's
	// range.
	if res.Partitions <= 64-40 {
		t.Logf("partitions = %d", res.Partitions)
	}
}

// TestAssembleVariableLengthFullGraph covers the transitive-reduction
// path (spmat's masked two-hop pass over the full string graph) with
// heterogeneous lengths, where overhang arithmetic uses per-vertex lengths.
func TestAssembleVariableLengthFullGraph(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 2000, Seed: 603})
	rng := rand.New(rand.NewSource(604))
	rs := dna.NewReadSet(500, 500*70)
	for i := 0; i < 500; i++ {
		n := 45 + rng.Intn(26)
		pos := rng.Intn(len(genome) - n + 1)
		rs.Append(genome[pos : pos+n].Clone())
	}
	cfg := smallConfig(t)
	cfg.MinOverlap = 28
	cfg.GraphBackend = BackendSpmat
	cfg.DedupeReads = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(rs)
	if err != nil {
		t.Fatal(err)
	}
	gs := genome.String()
	grc := genome.ReverseComplement().String()
	for i, c := range res.Contigs {
		if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
			t.Errorf("full-graph contig %d not a genome substring", i)
		}
	}
	if res.ReducedEdges == 0 {
		t.Error("expected transitive reductions")
	}
}
