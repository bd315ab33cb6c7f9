package core

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
)

// TestSelfComplementEdgeDropped pins the u → u^1 rule (DESIGN.md, "The
// u → u^1 edge"). The read's 40-bp suffix is its own reverse complement
// (20 bases followed by their reverse complement), so at MinOverlap 20 its
// one exact overlap is to its own complement: the 40-suffix of u equals
// the 40-prefix of u^1. Every backend finds that candidate and drops it,
// so the read has no edge and is a contig only with IncludeSingletons.
func TestSelfComplementEdgeDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const bases = "ACGT"
	spell := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = bases[rng.Intn(4)]
		}
		return string(b)
	}
	x, err := dna.ParseSeq(spell(20))
	if err != nil {
		t.Fatal(err)
	}
	read, err := dna.ParseSeq(spell(60) + x.String() + x.ReverseComplement().String())
	if err != nil {
		t.Fatal(err)
	}
	suffix := read[len(read)-40:]
	if !suffix.Equal(read.ReverseComplement()[:40]) {
		t.Fatal("the read's 40-suffix is not the 40-prefix of its complement")
	}
	for _, backend := range Backends {
		for _, singletons := range []bool{false, true} {
			cfg := smallConfig(t)
			cfg.MinOverlap = 20
			cfg.GraphBackend = backend
			cfg.IncludeSingletons = singletons
			rs := dna.NewReadSet(1, len(read))
			rs.Append(read)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Assemble(rs)
			if err != nil {
				t.Fatalf("%s singletons=%t: %v", backend, singletons, err)
			}
			if res.CandidateEdges != 1 || res.AcceptedEdges != 0 {
				t.Errorf("%s singletons=%t: %d candidates, %d accepted edges; want the u→u^1 candidate, dropped",
					backend, singletons, res.CandidateEdges, res.AcceptedEdges)
			}
			want := 0
			if singletons {
				want = 1
			}
			if len(res.Contigs) != want {
				t.Fatalf("%s singletons=%t: %d contigs, want %d", backend, singletons, len(res.Contigs), want)
			}
			if singletons && !res.Contigs[0].Equal(read) && !res.Contigs[0].Equal(read.ReverseComplement()) {
				t.Errorf("%s: the singleton contig is not the read or its complement", backend)
			}
		}
	}
}
