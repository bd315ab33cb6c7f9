package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quality"
	"repro/internal/readsim"
)

// The backend differential harness runs the full pipeline under every
// graph engine — greedy, the sgraph full graph, and the spmat sparse-
// matrix backend — over a spread of read profiles, and pins the contract
// between them:
//
//   - spmat removes at least as many transitive edges as the Myers sweep
//     (masked SpGEMM sees witness pairs the sweep's in-play pruning
//     skips; see internal/spmat's package doc).
//   - When the removed-edge counts agree, the live edge sets agree
//     (superset + equal cardinality), so the contig FASTA must be
//     byte-identical to the full-graph output.
//   - The spmat FASTA is either byte-identical to the default greedy
//     pipeline's output, or it is a documented refinement pinned by a
//     golden file under testdata/golden/ — any other drift fails.
//
// Regenerate the goldens after an intentional engine change with
//
//	go test ./internal/core -run TestBackendDifferential -update
var updateGolden = flag.Bool("update", false, "rewrite backend differential golden FASTA files")

type backendShape struct {
	name   string
	genome readsim.GenomeParams
	reads  readsim.ReadParams
	mutate func(*Config)
	// clean marks repeat-free genomes where every engine must produce
	// zero misassemblies and only genome-substring contigs.
	clean bool
}

// backendShapes spans the differential surface: coverage density, read
// length, repeat content, overhang fuzz, singleton emission, and the
// strandedness of the simulated library.
var backendShapes = []backendShape{
	{
		name:   "dense_short",
		genome: readsim.GenomeParams{Length: 4000, Seed: 601},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 14, Seed: 602},
		mutate: func(c *Config) { c.DedupeReads = true; c.VerifyOverlaps = true },
		clean:  true,
	},
	{
		name:   "long_reads",
		genome: readsim.GenomeParams{Length: 6000, Seed: 611},
		reads:  readsim.ReadParams{ReadLen: 100, Coverage: 10, Seed: 612},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
	{
		name:   "sparse_singletons",
		genome: readsim.GenomeParams{Length: 3000, Seed: 621},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 6, Seed: 622},
		mutate: func(c *Config) { c.DedupeReads = true; c.IncludeSingletons = true },
		clean:  true,
	},
	{
		name: "repeats",
		genome: readsim.GenomeParams{
			Length: 5000, RepeatLen: 200, RepeatCount: 3, Seed: 631,
		},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 16, Seed: 632},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  false,
	},
	{
		name:   "overhang_fuzz",
		genome: readsim.GenomeParams{Length: 4500, Seed: 641},
		reads:  readsim.ReadParams{ReadLen: 72, Coverage: 12, Seed: 642},
		mutate: func(c *Config) { c.DedupeReads = true; c.TransitiveFuzz = 2 },
		clean:  true,
	},
	{
		name:   "forward_only",
		genome: readsim.GenomeParams{Length: 3500, Seed: 651},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 12, Seed: 652, ForwardOnly: true},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
}

// runBackendShape assembles one shape under one engine and returns the
// result plus the FASTA bytes written to disk.
func runBackendShape(t *testing.T, shape backendShape, engine string) (*Result, []byte) {
	t.Helper()
	genome := readsim.Genome(shape.genome)
	reads := readsim.Simulate(genome, shape.reads)
	cfg := smallConfig(t)
	shape.mutate(&cfg)
	switch engine {
	case "greedy":
	case "full":
		cfg.GraphBackend = BackendFull
	case "spmat":
		cfg.GraphBackend = BackendSpmat
	case "succinct":
		cfg.GraphBackend = BackendSuccinct
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	fasta, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	return res, fasta
}

func goldenPath(shape string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("backend_%s.fasta", shape))
}

func TestBackendDifferential(t *testing.T) {
	for _, shape := range backendShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			greedy, greedyFasta := runBackendShape(t, shape, "greedy")
			full, fullFasta := runBackendShape(t, shape, "full")
			sp, spFasta := runBackendShape(t, shape, "spmat")
			succ, succFasta := runBackendShape(t, shape, "succinct")

			// The succinct backend runs spmat's exact reduction predicate
			// over the compressed store, so its counters and contigs must
			// match spmat bit for bit — which transitively pins it against
			// greedy (or the committed golden) below.
			if succ.AcceptedEdges != sp.AcceptedEdges || succ.ReducedEdges != sp.ReducedEdges {
				t.Errorf("succinct edges %d+%d differ from spmat %d+%d",
					succ.AcceptedEdges, succ.ReducedEdges, sp.AcceptedEdges, sp.ReducedEdges)
			}
			if !bytes.Equal(succFasta, spFasta) {
				t.Errorf("succinct FASTA differs from spmat FASTA")
			}

			// The masked SpGEMM removes a superset of the Myers sweep's
			// transitive edges — never fewer.
			if sp.ReducedEdges < full.ReducedEdges {
				t.Errorf("spmat removed %d transitive edges, full graph removed %d",
					sp.ReducedEdges, full.ReducedEdges)
			}
			if sp.AcceptedEdges+sp.ReducedEdges != full.AcceptedEdges+full.ReducedEdges {
				t.Errorf("backends saw different string graphs: spmat %d+%d edges, full %d+%d",
					sp.AcceptedEdges, sp.ReducedEdges, full.AcceptedEdges, full.ReducedEdges)
			}

			// Superset + equal count ⇒ equal removed set ⇒ identical live
			// graph ⇒ identical unitigs, byte for byte.
			if sp.ReducedEdges == full.ReducedEdges && !bytes.Equal(spFasta, fullFasta) {
				t.Errorf("equal removed-edge counts (%d) but spmat FASTA differs from full-graph FASTA",
					sp.ReducedEdges)
			}

			// Against the default greedy pipeline the output is either
			// byte-identical or a golden-pinned refinement.
			golden := goldenPath(shape.name)
			if *updateGolden {
				if bytes.Equal(spFasta, greedyFasta) {
					if err := os.Remove(golden); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				} else {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, spFasta, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if bytes.Equal(spFasta, greedyFasta) {
				if _, err := os.Stat(golden); err == nil {
					t.Errorf("spmat FASTA matches greedy but a stale golden exists; rerun with -update")
				}
			} else {
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("spmat FASTA diverges from greedy and no golden pins it (rerun with -update): %v", err)
				}
				if !bytes.Equal(spFasta, want) {
					t.Errorf("spmat FASTA drifted from the committed golden %s", golden)
				}
			}
			_ = greedy

			// Quality floor: the refinement must never invent sequence.
			genome := readsim.Genome(shape.genome)
			rep := quality.Evaluate(genome, sp.Contigs)
			if shape.clean {
				if rep.MisassembledContigs != 0 {
					t.Errorf("spmat produced %d misassembled contigs", rep.MisassembledContigs)
				}
				for i, c := range sp.Contigs {
					if !isSubstring(genome, c) {
						t.Errorf("spmat contig %d is not a genome substring", i)
					}
				}
			}
			if rep.CoverageFraction() < 0.80 {
				t.Errorf("spmat coverage = %.3f", rep.CoverageFraction())
			}
		})
	}
}
