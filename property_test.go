package lasagna

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/readsim"
)

// TestPropertyPipelineMatchesBruteForce checks the whole fingerprint
// pipeline (map, sort, reduce) against a quadratic brute-force overlap
// scan on small random datasets: the candidate edge multiset must be
// exactly the set of true suffix-prefix overlaps — no misses and, with
// 128-bit fingerprints, no false positives.
func TestPropertyPipelineMatchesBruteForce(t *testing.T) {
	type edge struct {
		u, v uint32
		l    uint16
	}
	f := func(seed int64, sz uint8) bool {
		genomeLen := 300 + int(sz)*4
		genome := readsim.Genome(readsim.GenomeParams{Length: genomeLen, Seed: seed})
		reads := readsim.Simulate(genome, readsim.ReadParams{
			ReadLen: 30, Coverage: 4, Seed: seed + 1,
		})
		lmin := 15

		// Brute force.
		want := map[edge]bool{}
		nv := uint32(reads.NumVertices())
		seqs := make([]dna.Seq, nv)
		for v := uint32(0); v < nv; v++ {
			seqs[v] = reads.VertexSeq(v)
		}
		for u := uint32(0); u < nv; u++ {
			for v := uint32(0); v < nv; v++ {
				if u == v {
					continue
				}
				for l := lmin; l < len(seqs[u]) && l < len(seqs[v]); l++ {
					if seqs[u][len(seqs[u])-l:].Equal(seqs[v][:l]) {
						want[edge{u, v, uint16(l)}] = true
					}
				}
			}
		}

		// Pipeline: capture candidates via a verifying config with the
		// graph discarded; CandidateEdges counts every emission, and with
		// VerifyOverlaps every false positive would be counted.
		dir := t.TempDir()
		cfg := DefaultConfig(dir)
		cfg.MinOverlap = lmin
		cfg.HostBlockPairs = 1 << 12
		cfg.DeviceBlockPairs = 1 << 9
		cfg.MapBatchReads = 64
		cfg.VerifyOverlaps = true
		res, err := Assemble(cfg, reads)
		if err != nil {
			t.Log(err)
			return false
		}
		if res.FalsePositives != 0 {
			t.Logf("seed %d: %d false positives", seed, res.FalsePositives)
			return false
		}
		if res.CandidateEdges != int64(len(want)) {
			t.Logf("seed %d: pipeline found %d candidates, brute force %d",
				seed, res.CandidateEdges, len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyContigsAlwaysSubstrings asserts the pipeline's core safety
// property across random configurations: error-free input never produces
// a contig that is not an exact genome substring, regardless of graph
// engine, packing or deduplication.
func TestPropertyContigsAlwaysSubstrings(t *testing.T) {
	f := func(seed int64, spmat, packed, dedupe bool) bool {
		genome := readsim.Genome(readsim.GenomeParams{Length: 1200, Seed: seed})
		reads := readsim.Simulate(genome, readsim.ReadParams{
			ReadLen: 40, Coverage: 8, Seed: seed + 1,
		})
		cfg := DefaultConfig(t.TempDir())
		cfg.MinOverlap = 22
		cfg.HostBlockPairs = 1 << 12
		cfg.DeviceBlockPairs = 1 << 9
		cfg.MapBatchReads = 128
		if spmat {
			cfg.GraphBackend = core.BackendSpmat
		}
		cfg.PackedReads = packed // packed composes with dedupe
		cfg.DedupeReads = dedupe
		res, err := Assemble(cfg, reads)
		if err != nil {
			t.Log(err)
			return false
		}
		gs := genome.String()
		grc := genome.ReverseComplement().String()
		for _, c := range res.Contigs {
			s := c.String()
			if !containsStr(gs, s) && !containsStr(grc, s) {
				t.Logf("seed %d (spmat=%v packed=%v dedupe=%v): bad contig",
					seed, spmat, packed, dedupe)
				return false
			}
		}
		return len(res.Contigs) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
