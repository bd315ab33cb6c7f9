package core

import (
	"fmt"
	"testing"

	"repro/internal/quality"
	"repro/internal/readsim"
)

// TestDedupeTargetPerBackend pins what every backend assembles from
// error-free 30× reads of a 10 kb genome: one contig spanning at least
// 9 900 bases and no misassembly. With DedupeReads that holds today (one
// 9 999-bp contig on each backend). Without
// it every duplicate read becomes a branch, so the half that runs without
// DedupeReads is skipped until duplicates are found in the pipeline
// (ROADMAP item 3(b)).
func TestDedupeTargetPerBackend(t *testing.T) {
	genome := readsim.Genome(readsim.GenomeParams{Length: 10000, Seed: 3101})
	reads := readsim.Simulate(genome, readsim.ReadParams{ReadLen: 100, Coverage: 30, Seed: 3102})
	for _, dedupe := range []bool{true, false} {
		for _, backend := range Backends {
			t.Run(fmt.Sprintf("dedupe=%t/%s", dedupe, backend), func(t *testing.T) {
				if !dedupe {
					t.Skip("duplicate reads fragment every backend without DedupeReads until ROADMAP 3(b) " +
						"finds them in the pipeline; today: greedy 34 contigs with N50 1 069, " +
						"spmat and succinct 1 138 contigs with N50 100")
				}
				cfg := smallConfig(t)
				cfg.GraphBackend = backend
				cfg.DedupeReads = dedupe
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Assemble(reads)
				if err != nil {
					t.Fatal(err)
				}
				rep := quality.Evaluate(genome, res.Contigs)
				if rep.NumContigs != 1 || rep.MaxLen < 9900 || rep.MisassembledContigs != 0 {
					t.Errorf("%d contigs, longest %d bp, %d misassembled; want 1 of at least 9 900 bp, none misassembled",
						rep.NumContigs, rep.MaxLen, rep.MisassembledContigs)
				}
			})
		}
	}
}
